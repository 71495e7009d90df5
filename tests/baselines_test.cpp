#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "baselines/oracle_selector.h"
#include "baselines/qbc_selector.h"
#include "baselines/random_selector.h"
#include "cs/temporal_inference.h"
#include "test_helpers.h"

namespace drcell::baselines {
namespace {

std::shared_ptr<const mcs::SensingTask> toy_task_ptr(std::size_t cells = 6,
                                                     std::size_t cycles = 8) {
  return std::make_shared<const mcs::SensingTask>(
      testing::make_toy_task(cells, cycles));
}

TEST(RandomSelector, OnlyPicksUnmaskedCells) {
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9);
  RandomSelector sel(1);
  env.step(0);
  env.step(1);
  for (int i = 0; i < 50; ++i) {
    const auto a = sel.select(env);
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, 1u);
    EXPECT_LT(a, 6u);
  }
}

TEST(RandomSelector, CoversAllCellsEventually) {
  auto env = testing::make_toy_environment(toy_task_ptr(), 1e9);
  RandomSelector sel(2);
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(sel.select(env));
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RandomSelector, DeterministicForSeed) {
  auto env1 = testing::make_toy_environment(toy_task_ptr(), 1e9);
  auto env2 = testing::make_toy_environment(toy_task_ptr(), 1e9);
  RandomSelector a(7), b(7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.select(env1), b.select(env2));
}

TEST(RandomSelector, CompletesCyclesViaRunCycle) {
  auto env = testing::make_toy_environment(toy_task_ptr(6, 4), 1e9);
  RandomSelector sel(3);
  const auto r =
      env.run_cycle([&sel](const mcs::SparseMcsEnvironment& e) {
        return sel.select(e);
      });
  EXPECT_TRUE(r.cycle_complete);
  EXPECT_EQ(env.stats().cycle_selected.back(), 3u);
}

TEST(QbcSelector, DefaultCommitteeSelectsValidCells) {
  auto task = toy_task_ptr();
  auto env = testing::make_toy_environment(task, 1e9);
  auto sel = QbcSelector::make_default(*task, 4);
  const auto a = sel.select(env);
  EXPECT_LT(a, 6u);
  env.step(a);
  const auto b = sel.select(env);
  EXPECT_NE(b, a);
  EXPECT_LT(b, 6u);
}

TEST(QbcSelector, PrefersHighDisagreementCell) {
  // Build a committee of mean + temporal interpolation and a window where
  // exactly one unsensed cell shows disagreement between the two engines.
  auto task = toy_task_ptr(4, 6);
  mcs::EnvOptions opt;
  opt.inference_window = 6;
  auto env = testing::make_toy_environment(task, 1e9, opt);
  // Cycle 0: observe cells 0, 1; quality satisfied at min_obs=3 -> pick 2.
  env.step(0);
  env.step(1);
  env.step(2);  // completes cycle 0
  // Now cycle 1. Observe cell 0: remaining candidates are 1, 2, 3.
  env.step(0);

  std::vector<cs::InferenceEnginePtr> members;
  members.push_back(std::make_shared<cs::MatrixCompletion>());
  members.push_back(std::make_shared<cs::KnnInference>(task->coords()));
  members.push_back(std::make_shared<cs::TemporalInterpolation>());
  QbcSelector sel(cs::InferenceCommittee(std::move(members)), 5);
  const auto choice = sel.select(env);
  EXPECT_NE(choice, 0u);  // cell 0 already sensed
  EXPECT_LT(choice, 4u);
}

TEST(QbcSelector, DeterministicGivenSameState) {
  auto task = toy_task_ptr();
  auto env = testing::make_toy_environment(task, 1e9);
  env.step(2);
  auto sel1 = QbcSelector::make_default(*task, 9);
  auto sel2 = QbcSelector::make_default(*task, 9);
  EXPECT_EQ(sel1.select(env), sel2.select(env));
}

TEST(QbcSelector, CheckpointWordsCarryDrawStreamAndWarmStart) {
  // The words hold the tie-break stream and the committee's ALS warm-start
  // fit; restoring them into a fresh same-seed selector reproduces both, so
  // the two selectors then choose alike and stay in the same state.
  auto task = toy_task_ptr();
  auto env = testing::make_toy_environment(task, 1e9);
  auto sel = QbcSelector::make_default(*task, 9);
  for (int i = 0; i < 4; ++i) env.step(sel.select(env));
  const std::vector<std::uint64_t> words = sel.checkpoint_state_words();
  EXPECT_GT(words.size(), Rng::kStateWords + 3);  // stream + per-member fit

  auto resumed = QbcSelector::make_default(*task, 9);
  EXPECT_NE(resumed.checkpoint_state_words(), words);
  resumed.restore_state_words(words);
  EXPECT_EQ(resumed.checkpoint_state_words(), words);
  EXPECT_EQ(resumed.select(env), sel.select(env));
  EXPECT_EQ(resumed.checkpoint_state_words(), sel.checkpoint_state_words());

  auto other = QbcSelector::make_default(*task, 9);
  EXPECT_THROW(other.restore_state_words({1, 2, 3}), CheckError);
}

TEST(OracleSelector, PicksErrorMinimisingCell) {
  auto task = toy_task_ptr(6, 4);
  auto env = testing::make_toy_environment(task, 1e9);
  GreedyOracleSelector oracle(testing::default_engine());
  const auto a = oracle.select(env);
  EXPECT_LT(a, 6u);
  env.step(a);
  const auto b = oracle.select(env);
  EXPECT_NE(b, a);
}

TEST(OracleSelector, BeatsRandomOnAverageError) {
  // After an equal number of selections, oracle-guided sensing should leave
  // a true cycle error no worse than random sensing (averaged over cycles).
  auto run = [&](bool use_oracle, std::uint64_t seed) {
    auto task = toy_task_ptr(6, 6);
    mcs::EnvOptions opt;
    opt.min_observations = 1;
    opt.max_selections_per_cycle = 3;
    auto env = mcs::SparseMcsEnvironment(
        task, testing::default_engine(),
        std::make_shared<mcs::GroundTruthGate>(0.0), opt);  // never satisfied
    GreedyOracleSelector oracle(testing::default_engine());
    RandomSelector random(seed);
    while (!env.episode_done()) {
      const auto a =
          use_oracle ? oracle.select(env) : random.select(env);
      env.step(a);
    }
    double total = 0.0;
    for (double e : env.stats().cycle_errors) total += e;
    return total / static_cast<double>(env.stats().cycle_errors.size());
  };
  double random_err = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) random_err += run(false, 10 + s);
  random_err /= 3.0;
  const double oracle_err = run(true, 0);
  EXPECT_LE(oracle_err, random_err * 1.05);
}

TEST(OracleSelector, RequiresEngine) {
  EXPECT_THROW(GreedyOracleSelector(nullptr), CheckError);
}

}  // namespace
}  // namespace drcell::baselines
