// Data-inference interface of Sparse MCS (Definition 5): given the partially
// observed window of the sensing matrix, estimate every entry.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cs/partial_matrix.h"

namespace drcell::cs {

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  /// Returns a full estimate of the matrix. Observed entries should be
  /// reproduced (approximately for regularised engines, exactly for
  /// interpolators); unobserved entries are inferred.
  virtual Matrix infer(const PartialMatrix& observed) const = 0;

  /// Leave-one-out predictions for the observed cells of column `col`,
  /// index-aligned with observed_rows_in_col(col): entry k estimates cell
  /// rows[k] at that column with its own observation withheld. The quality
  /// assessor calls this once per gate decision.
  ///
  /// The default re-runs infer() once per observed cell (exact but
  /// expensive); engines may override with cheaper approximations.
  virtual std::vector<double> loo_column_predictions(
      const PartialMatrix& observed, std::size_t col) const;

  /// Checkpoint hooks for engines that carry state from one infer() call to
  /// the next (MatrixCompletion's ALS warm start): the state as opaque
  /// 64-bit words, such that restoring them into a freshly constructed
  /// same-config engine makes its future results bit-identical to this
  /// one's. Const like infer(), because engines are shared as const
  /// pointers and keep such state in mutable caches. Stateless engines keep
  /// the empty defaults.
  virtual std::vector<std::uint64_t> checkpoint_state_words() const {
    return {};
  }
  virtual void restore_state_words(
      std::span<const std::uint64_t> words) const {
    DRCELL_CHECK_MSG(words.empty(),
                     "engine " + name() + " expects no checkpoint state");
  }

  virtual std::string name() const = 0;
};

using InferenceEnginePtr = std::shared_ptr<const InferenceEngine>;

}  // namespace drcell::cs
