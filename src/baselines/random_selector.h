// RANDOM baseline (Sec. 5.2): sense uniformly random unsensed cells until
// the quality gate is satisfied.
#pragma once

#include "baselines/selector.h"
#include "util/rng.h"

namespace drcell::baselines {

class RandomSelector final : public CellSelector {
 public:
  explicit RandomSelector(std::uint64_t seed);

  std::size_t select(const mcs::SparseMcsEnvironment& env) override;
  std::string name() const override { return "RANDOM"; }

  /// The draw stream (util/rng.h save/restore): a resumed RANDOM campaign
  /// picks the exact cells the uninterrupted run would have.
  std::vector<std::uint64_t> checkpoint_state_words() const override {
    return rng_.state_words();
  }
  void restore_state_words(const std::vector<std::uint64_t>& words) override {
    DRCELL_CHECK_MSG(words.size() == Rng::kStateWords,
                     "RANDOM checkpoint needs 6 words");
    rng_.restore_state_words(words);
  }

 private:
  Rng rng_;
};

}  // namespace drcell::baselines
