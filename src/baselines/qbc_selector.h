// Query-By-Committee baseline (Sec. 5.2, following CCS-TA/SPACE-TA): a
// committee of heterogeneous inference algorithms each reconstructs the
// sensing matrix; the next sensed cell is the one where their predictions
// for the current cycle disagree the most (largest variance) — the
// "hard-to-infer" cell.
#pragma once

#include "baselines/selector.h"
#include "cs/committee.h"
#include "util/rng.h"

namespace drcell::baselines {

class QbcSelector final : public CellSelector {
 public:
  /// The committee typically mixes compressive sensing, KNN and temporal
  /// interpolation; `seed` drives tie-breaking only.
  QbcSelector(cs::InferenceCommittee committee, std::uint64_t seed);

  /// Builds the canonical three-member committee for a task geometry.
  static QbcSelector make_default(const mcs::SensingTask& task,
                                  std::uint64_t seed);

  std::size_t select(const mcs::SparseMcsEnvironment& env) override;
  std::string name() const override { return "QBC"; }

  /// The tie-break draw stream followed by the committee's engine state
  /// (the ALS warm-start fit): a resumed QBC campaign infers from the same
  /// warm start and breaks ties with the same draws as the uninterrupted
  /// run, so it picks the same cells.
  std::vector<std::uint64_t> checkpoint_state_words() const override;
  void restore_state_words(const std::vector<std::uint64_t>& words) override;

 private:
  cs::InferenceCommittee committee_;
  Rng rng_;
};

}  // namespace drcell::baselines
