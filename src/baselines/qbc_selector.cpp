#include "baselines/qbc_selector.h"

#include "cs/matrix_completion.h"
#include "cs/mean_inference.h"
#include "cs/temporal_inference.h"

namespace drcell::baselines {

QbcSelector::QbcSelector(cs::InferenceCommittee committee, std::uint64_t seed)
    : committee_(std::move(committee)), rng_(seed) {}

QbcSelector QbcSelector::make_default(const mcs::SensingTask& task,
                                      std::uint64_t seed) {
  std::vector<cs::InferenceEnginePtr> members;
  members.push_back(std::make_shared<cs::MatrixCompletion>());
  members.push_back(std::make_shared<cs::KnnInference>(task.coords()));
  members.push_back(std::make_shared<cs::TemporalInterpolation>());
  return QbcSelector(cs::InferenceCommittee(std::move(members)), seed);
}

std::size_t QbcSelector::select(const mcs::SparseMcsEnvironment& env) {
  const auto& window = env.observation_window();
  const std::size_t col = env.current_window_col();

  const auto predictions = committee_.infer_all(window);
  const Matrix variance = cs::InferenceCommittee::disagreement(predictions);

  // Argmax of the committee variance over selectable cells; ties (notably
  // the all-zero variance at the start of a cycle) break uniformly. The
  // scan stays in ascending cell order — can_select() is the O(1)
  // membership test of the incremental unsensed set, and the epsilon-band
  // tie collection below is order-sensitive, so iterating the set's
  // swap-removal order would change the selection stream for a given seed.
  double best = -1.0;
  std::vector<std::size_t> best_cells;
  for (std::size_t cell = 0; cell < env.num_cells(); ++cell) {
    if (!env.can_select(cell)) continue;
    const double v = variance(cell, col);
    if (v > best + 1e-15) {
      best = v;
      best_cells.assign(1, cell);
    } else if (v >= best - 1e-15) {
      best_cells.push_back(cell);
    }
  }
  DRCELL_CHECK_MSG(!best_cells.empty(), "no selectable cell");
  return best_cells[rng_.uniform_index(best_cells.size())];
}

std::vector<std::uint64_t> QbcSelector::checkpoint_state_words() const {
  std::vector<std::uint64_t> words = rng_.state_words();
  const auto committee = committee_.checkpoint_state_words();
  words.insert(words.end(), committee.begin(), committee.end());
  return words;
}

void QbcSelector::restore_state_words(
    const std::vector<std::uint64_t>& words) {
  committee_.restore_state_words(rng_.restore_state_words(words));
}

}  // namespace drcell::baselines
