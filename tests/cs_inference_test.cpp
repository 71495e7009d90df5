#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "cs/committee.h"
#include "cs/knn_inference.h"
#include "cs/matrix_completion.h"
#include "cs/mean_inference.h"
#include "cs/partial_matrix.h"
#include "cs/temporal_inference.h"
#include "data/datasets.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace drcell::cs {
namespace {

/// Exactly rank-2 matrix (outer product + outer product).
Matrix make_low_rank(std::size_t m, std::size_t n, Rng& rng) {
  std::vector<double> u1(m), v1(n), u2(m), v2(n);
  for (auto& x : u1) x = rng.uniform(0.5, 1.5);
  for (auto& x : v1) x = rng.uniform(0.5, 1.5);
  for (auto& x : u2) x = rng.normal();
  for (auto& x : v2) x = rng.normal();
  Matrix d(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      d(i, j) = 10.0 + 3.0 * u1[i] * v1[j] + u2[i] * v2[j];
  return d;
}

PartialMatrix sample_entries(const Matrix& d, double fraction, Rng& rng) {
  PartialMatrix p(d.rows(), d.cols());
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (rng.bernoulli(fraction)) p.set(i, j, d(i, j));
  return p;
}

TEST(PartialMatrix, SetClearAndCounts) {
  PartialMatrix p(3, 4);
  EXPECT_EQ(p.observed_count(), 0u);
  p.set(1, 2, 5.0);
  EXPECT_TRUE(p.observed(1, 2));
  EXPECT_EQ(p.value(1, 2), 5.0);
  EXPECT_EQ(p.observed_count(), 1u);
  p.set(1, 2, 6.0);  // overwrite, no double count
  EXPECT_EQ(p.observed_count(), 1u);
  EXPECT_EQ(p.value(1, 2), 6.0);
  p.clear(1, 2);
  EXPECT_FALSE(p.observed(1, 2));
  EXPECT_EQ(p.observed_count(), 0u);
}

TEST(PartialMatrix, ReadingUnobservedThrows) {
  PartialMatrix p(2, 2);
  EXPECT_THROW(p.value(0, 0), CheckError);
}

TEST(PartialMatrix, RowColQueries) {
  PartialMatrix p(3, 3);
  p.set(0, 1, 1.0);
  p.set(2, 1, 2.0);
  p.set(2, 2, 3.0);
  EXPECT_EQ(p.observed_count_in_col(1), 2u);
  EXPECT_EQ(p.observed_count_in_row(2), 2u);
  EXPECT_EQ(p.observed_rows_in_col(1), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(p.observed_cols_in_row(2), (std::vector<std::size_t>{1, 2}));
}

TEST(PartialMatrix, ObservedMean) {
  PartialMatrix p(2, 2);
  EXPECT_EQ(p.observed_mean(), 0.0);
  p.set(0, 0, 2.0);
  p.set(1, 1, 4.0);
  EXPECT_DOUBLE_EQ(p.observed_mean(), 3.0);
}

TEST(PartialMatrix, IndexOutOfRangeThrows) {
  PartialMatrix p(2, 2);
  EXPECT_THROW(p.set(2, 0, 1.0), CheckError);
  EXPECT_THROW(p.observed(0, 2), CheckError);
}

TEST(MatrixCompletion, RecoversLowRankMatrix) {
  Rng rng(1);
  const Matrix d = make_low_rank(12, 20, rng);
  const PartialMatrix p = sample_entries(d, 0.5, rng);
  MatrixCompletionOptions opt;
  opt.rank = 3;
  const MatrixCompletion mc(opt);
  const Matrix est = mc.infer(p);
  double err = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (!p.observed(i, j)) {
        err += std::fabs(est(i, j) - d(i, j));
        ++count;
      }
  err /= static_cast<double>(count);
  // Relative to the data scale (~10), recovery should be tight.
  EXPECT_LT(err, 0.35) << "mean abs error " << err;
}

TEST(MatrixCompletion, KeepsObservedEntriesExact) {
  Rng rng(2);
  const Matrix d = make_low_rank(8, 10, rng);
  const PartialMatrix p = sample_entries(d, 0.4, rng);
  const Matrix est = MatrixCompletion().infer(p);
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j)
      if (p.observed(i, j)) EXPECT_EQ(est(i, j), d(i, j));
}

TEST(MatrixCompletion, EmptyObservationFallsBackToZeroMean) {
  PartialMatrix p(4, 4);
  const Matrix est = MatrixCompletion().infer(p);
  EXPECT_EQ(est.max_abs(), 0.0);
}

TEST(MatrixCompletion, SingleObservationGivesConstantField) {
  PartialMatrix p(4, 4);
  p.set(1, 1, 7.5);
  const Matrix est = MatrixCompletion().infer(p);
  EXPECT_FALSE(est.has_non_finite());
  // Every unobserved estimate should be near the only evidence available.
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(est(i, j), 7.5, 1.0);
}

TEST(MatrixCompletion, MoreObservationsReduceError) {
  Rng rng(3);
  const Matrix d = make_low_rank(10, 16, rng);
  auto error_at = [&](double fraction, std::uint64_t seed) {
    Rng sample_rng(seed);
    const PartialMatrix p = sample_entries(d, fraction, sample_rng);
    const Matrix est = MatrixCompletion().infer(p);
    double err = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < d.rows(); ++i)
      for (std::size_t j = 0; j < d.cols(); ++j)
        if (!p.observed(i, j)) {
          err += std::fabs(est(i, j) - d(i, j));
          ++count;
        }
    return count ? err / static_cast<double>(count) : 0.0;
  };
  // Average over a few samplings to avoid single-draw flakiness.
  double sparse = 0.0, dense = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    sparse += error_at(0.15, 100 + s);
    dense += error_at(0.6, 200 + s);
  }
  EXPECT_LT(dense, sparse);
}

TEST(MatrixCompletion, DeterministicAcrossCalls) {
  Rng rng(4);
  const Matrix d = make_low_rank(6, 8, rng);
  const PartialMatrix p = sample_entries(d, 0.5, rng);
  const MatrixCompletion mc;
  EXPECT_EQ(mc.infer(p), mc.infer(p));
}

TEST(MatrixCompletion, RejectsBadOptions) {
  MatrixCompletionOptions opt;
  opt.rank = 0;
  EXPECT_THROW(MatrixCompletion{opt}, CheckError);
  opt.rank = 2;
  opt.lambda = 0.0;
  EXPECT_THROW(MatrixCompletion{opt}, CheckError);
}

TEST(KnnInference, DistanceHelper) {
  EXPECT_DOUBLE_EQ(euclidean_distance({0, 0}, {3, 4}), 5.0);
}

TEST(KnnInference, InterpolatesFromNearestNeighbours) {
  // 4 cells on a line at x = 0, 1, 2, 3; observe the ends of one cycle.
  KnnInference knn({{0, 0}, {1, 0}, {2, 0}, {3, 0}}, {.k = 2});
  PartialMatrix p(4, 1);
  p.set(0, 0, 0.0);
  p.set(3, 0, 9.0);
  const Matrix est = knn.infer(p);
  // Cell 1 is nearer to cell 0 -> weighted below midpoint.
  EXPECT_GT(est(1, 0), 0.0);
  EXPECT_LT(est(1, 0), 4.5);
  EXPECT_GT(est(2, 0), 4.5);
  EXPECT_LT(est(2, 0), 9.0);
}

TEST(KnnInference, CoincidentCellCopiesValue) {
  KnnInference knn({{0, 0}, {0, 0}, {5, 5}}, {.k = 2});
  PartialMatrix p(3, 1);
  p.set(0, 0, 42.0);
  const Matrix est = knn.infer(p);
  EXPECT_EQ(est(1, 0), 42.0);
}

TEST(KnnInference, EmptyCycleFallsBackToCellMean) {
  KnnInference knn({{0, 0}, {10, 0}});
  PartialMatrix p(2, 2);
  p.set(0, 0, 4.0);  // only cycle 0 observed
  const Matrix est = knn.infer(p);
  EXPECT_NEAR(est(0, 1), 4.0, 1e-12);  // cell 0's own mean
}

TEST(KnnInference, CoordinateCountMismatchThrows) {
  KnnInference knn({{0, 0}, {1, 1}});
  PartialMatrix p(3, 1);
  p.set(0, 0, 1.0);
  EXPECT_THROW(knn.infer(p), CheckError);
}

TEST(MeanInference, UsesColumnThenRowThenGlobal) {
  MeanInference mi;
  PartialMatrix p(3, 3);
  p.set(0, 0, 2.0);
  p.set(1, 0, 4.0);
  p.set(2, 2, 10.0);
  const Matrix est = mi.infer(p);
  EXPECT_DOUBLE_EQ(est(2, 0), 3.0);   // column-0 mean
  EXPECT_DOUBLE_EQ(est(2, 1), 10.0);  // column 1 empty -> row-2 mean
  EXPECT_DOUBLE_EQ(est(0, 0), 2.0);   // observed passthrough
}

TEST(TemporalInterpolation, LinearBetweenObservations) {
  TemporalInterpolation ti;
  PartialMatrix p(1, 5);
  p.set(0, 0, 0.0);
  p.set(0, 4, 8.0);
  const Matrix est = ti.infer(p);
  EXPECT_NEAR(est(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(est(0, 2), 4.0, 1e-12);
  EXPECT_NEAR(est(0, 3), 6.0, 1e-12);
}

TEST(TemporalInterpolation, ConstantExtrapolationAtEnds) {
  TemporalInterpolation ti;
  PartialMatrix p(1, 5);
  p.set(0, 2, 3.0);
  const Matrix est = ti.infer(p);
  EXPECT_EQ(est(0, 0), 3.0);
  EXPECT_EQ(est(0, 4), 3.0);
}

TEST(TemporalInterpolation, UnobservedCellUsesCycleMeans) {
  TemporalInterpolation ti;
  PartialMatrix p(2, 2);
  p.set(0, 0, 2.0);
  p.set(0, 1, 6.0);
  const Matrix est = ti.infer(p);
  EXPECT_EQ(est(1, 0), 2.0);
  EXPECT_EQ(est(1, 1), 6.0);
}

TEST(Committee, RequiresTwoMembers) {
  std::vector<InferenceEnginePtr> one;
  one.push_back(std::make_shared<MeanInference>());
  EXPECT_THROW(InferenceCommittee{std::move(one)}, CheckError);
}

TEST(Committee, DisagreementIsZeroForIdenticalPredictions) {
  const std::vector<Matrix> preds{Matrix(2, 2, 3.0), Matrix(2, 2, 3.0)};
  EXPECT_EQ(InferenceCommittee::disagreement(preds).max_abs(), 0.0);
}

TEST(Committee, DisagreementMatchesVarianceFormula) {
  const std::vector<Matrix> preds{Matrix(1, 1, 1.0), Matrix(1, 1, 3.0),
                                  Matrix(1, 1, 5.0)};
  // Population variance of {1,3,5} = 8/3.
  EXPECT_NEAR(InferenceCommittee::disagreement(preds)(0, 0), 8.0 / 3.0,
              1e-12);
  EXPECT_NEAR(InferenceCommittee::mean_prediction(preds)(0, 0), 3.0, 1e-12);
}

TEST(Committee, InferAllRunsEveryMember) {
  std::vector<InferenceEnginePtr> members;
  members.push_back(std::make_shared<MeanInference>());
  members.push_back(std::make_shared<TemporalInterpolation>());
  InferenceCommittee committee(std::move(members));
  PartialMatrix p(2, 4);
  p.set(0, 0, 1.0);
  p.set(0, 3, 7.0);
  const auto preds = committee.infer_all(p);
  ASSERT_EQ(preds.size(), 2u);
  // Members genuinely disagree on cycle 1 of cell 0: the temporal
  // interpolator gives 1 + (1/3)·6 = 3, the mean engine gives the row
  // mean 4.
  EXPECT_NE(preds[0](0, 1), preds[1](0, 1));
}

// Bit pins of the ALS engine's outputs. The expected hashes were recorded
// with the ridge solves running as Gram-through-backend plus Cholesky; the
// fused ridge kernel must reproduce every bit, under every backend and any
// worker count.
std::uint64_t hash_bits(std::uint64_t h, std::span<const double> values) {
  for (const double v : values)
    h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
  return h;
}

/// ALS outputs over a window sequence: infer() on every window, then the
/// leave-one-out predictions of the listed columns, all on one engine (so
/// the later windows resume warm from the earlier fits).
std::uint64_t hash_als_outputs(const std::vector<PartialMatrix>& windows,
                               const std::vector<std::size_t>& loo_cols,
                               util::ThreadPool& pool) {
  MatrixCompletion engine;
  engine.set_thread_pool(&pool);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const PartialMatrix& w : windows) {
    h = hash_bits(h, engine.infer(w).data());
    for (const std::size_t c : loo_cols)
      h = hash_bits(h, engine.loo_column_predictions(w, c));
  }
  return h;
}

/// Reveals `reveals` random entries of `task`'s cycles [dense, cols) per
/// step on top of `first`, one window per step.
std::vector<PartialMatrix> reveal_sequence(const PartialMatrix& first,
                                           const mcs::SensingTask& task,
                                           std::size_t dense,
                                           std::size_t steps,
                                           std::size_t reveals,
                                           std::uint64_t seed) {
  std::vector<PartialMatrix> windows = {first};
  PartialMatrix w = first;
  Rng rng(seed);
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t k = 0; k < reveals; ++k) {
      const std::size_t cell = rng.uniform_index(w.rows());
      const std::size_t cycle = dense + rng.uniform_index(w.cols() - dense);
      if (!w.observed(cell, cycle)) w.set(cell, cycle, task.truth(cell, cycle));
    }
    windows.push_back(w);
  }
  return windows;
}

TEST(AlsBitPin, SensorScopeWindowOutputsArePinned) {
  // The 57 x 48 Sensor-Scope window of bench_micro_components: the first 24
  // cycles dense, the rest ~25% observed.
  const auto task = data::make_sensorscope_like(2018).temperature;
  PartialMatrix window(task.num_cells(), 48);
  Rng rng(3);
  for (std::size_t c = 0; c < 48; ++c)
    for (std::size_t cell = 0; cell < task.num_cells(); ++cell)
      if (c < 24 || rng.bernoulli(0.25))
        window.set(cell, c, task.truth(cell, c));
  const auto windows = reveal_sequence(window, task, 24, 4, 14, 71);
  const std::vector<std::size_t> loo_cols = {0, 30, 47};
  util::ThreadPool serial(0), pooled(3);
  const std::uint64_t h = hash_als_outputs(windows, loo_cols, serial);
  EXPECT_EQ(h, hash_als_outputs(windows, loo_cols, pooled));
  EXPECT_EQ(h, 0x6b45f356f50bd3dfULL) << std::hex << h;
}

TEST(AlsBitPin, CityScaleWarmSequenceOutputsArePinned) {
  // A 1000 x 16 city-scale window (first 4 cycles ~30% observed, the rest
  // ~10%) evolving by 100 reveals per step on one warm-started engine.
  const auto task = data::make_city_scale_task();
  PartialMatrix window(task.num_cells(), 16);
  Rng rng(5);
  for (std::size_t c = 0; c < 16; ++c)
    for (std::size_t cell = 0; cell < task.num_cells(); ++cell)
      if (rng.bernoulli(c < 4 ? 0.3 : 0.1))
        window.set(cell, c, task.truth(cell, c));
  const auto windows = reveal_sequence(window, task, 4, 5, 100, 9);
  const std::vector<std::size_t> loo_cols = {15};
  util::ThreadPool serial(0), pooled(3);
  const std::uint64_t h = hash_als_outputs(windows, loo_cols, serial);
  EXPECT_EQ(h, hash_als_outputs(windows, loo_cols, pooled));
  EXPECT_EQ(h, 0xb2c2e26df94c77b9ULL) << std::hex << h;
}

}  // namespace
}  // namespace drcell::cs
