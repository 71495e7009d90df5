// The cell-selection policy interface. DR-Cell, QBC, RANDOM and the oracle
// all implement it, so the campaign runner can evaluate them identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcs/environment.h"

namespace drcell::baselines {

class CellSelector {
 public:
  virtual ~CellSelector() = default;

  /// Chooses the next cell to sense given the environment's current
  /// observation window and action mask. Must return an unmasked cell.
  virtual std::size_t select(const mcs::SparseMcsEnvironment& env) = 0;

  /// Called by the campaign runner after the chosen action was applied —
  /// lets adaptive policies (online DR-Cell) learn from the outcome.
  virtual void on_step(const mcs::SparseMcsEnvironment& env,
                       std::size_t action, const mcs::StepResult& result) {
    (void)env;
    (void)action;
    (void)result;
  }

  /// Checkpoint/resume hooks (core/checkpoint.h): the selector's mutable
  /// state as opaque 64-bit words, such that restore_state_words on a
  /// freshly constructed same-config selector makes its future decisions
  /// bit-identical to the checkpointed one's. Stateless selectors (greedy
  /// DR-Cell, oracle) keep the empty default; stochastic ones (RANDOM,
  /// online DR-Cell) serialise their RNG stream, and QBC adds its
  /// committee's ALS warm-start fit after it. Model weights travel
  /// separately in the checkpoint's agent table, not here.
  virtual std::vector<std::uint64_t> checkpoint_state_words() const {
    return {};
  }
  virtual void restore_state_words(const std::vector<std::uint64_t>& words) {
    DRCELL_CHECK_MSG(words.empty(),
                     "selector " + name() + " expects no checkpoint state");
  }

  virtual std::string name() const = 0;
};

}  // namespace drcell::baselines
