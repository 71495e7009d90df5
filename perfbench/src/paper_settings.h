// The paper-scale settings every workload shares: the cycle split of the
// two evaluation datasets (Sec. 5.3: preliminary study, training stage,
// testing stage) and the DR-Cell hyper-parameters of the evaluation. Kept
// here, not taken from the repository's benches, so the benchmark measures
// the same work whatever the benches later change.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "rl/epsilon.h"
#include "util/rng.h"

namespace perfbench {

/// The datasets are the library's canonical synthetic stand-ins (the
/// factories' default seeds): the paper evaluates on two fixed datasets, and
/// a fresh field realisation per run seed moved cycles per second by about
/// 15% between seeds, more than any change the benchmark should resolve.
inline constexpr std::uint64_t kTempDataSeed = 2018;
inline constexpr std::uint64_t kPmDataSeed = 2013;

/// Every agent is initialised from the library's default seed: paper_train
/// trains it (its exploration draws from the same seed), and the fleets
/// deploy it untrained, a fixed stand-in for a trained policy. The agent
/// decides how many cells a cycle senses and how long the warm-started ALS
/// polish runs: a paper_train agent per run seed moved cycles per second by
/// 11% and the median iteration by 10% (interquartile, five seeds). The run
/// seed drives the RANDOM and QBC draw streams of paper_fleet and which
/// DR-Cell campaign the fleets' solo check replays.
inline constexpr std::uint64_t kAgentSeed = 7;

/// Sensor-Scope temperature: 57 cells, 336 half-hour cycles.
inline constexpr std::size_t kTempWarm = 48;
inline constexpr std::size_t kTempTrain = 96;
inline constexpr std::size_t kTempWindow = 48;
inline constexpr double kTempEpsilon = 0.3;  // °C, mean absolute error

/// U-Air PM2.5: 36 cells, 264 hourly cycles, AQI classification error.
inline constexpr std::size_t kPmWarm = 24;
inline constexpr std::size_t kPmTrain = 48;
inline constexpr std::size_t kPmWindow = 36;
inline constexpr double kPmEpsilon = 9.0 / 36.0;

inline constexpr double kP = 0.9;

/// The evaluation's DR-Cell configuration (DRQN, 64 LSTM units, k = 2,
/// replay warm-up 256, fixed target every 150 steps), with exploration
/// decaying over `decay_steps` environment steps.
inline drcell::core::DrCellConfig paper_config(std::size_t num_cells,
                                               std::size_t window,
                                               std::size_t decay_steps,
                                               std::uint64_t seed) {
  drcell::core::DrCellConfig config;
  config.history_cycles = 2;
  config.lstm_hidden = 64;
  config.dqn.gamma = 0.9;
  config.dqn.learning_rate = 1e-3;
  config.dqn.batch_size = 32;
  config.dqn.min_replay = 256;
  config.dqn.replay_capacity = 20000;
  config.dqn.target_sync_interval = 150;
  config.dqn.epsilon = drcell::rl::EpsilonSchedule(1.0, 0.05, decay_steps);
  config.env.min_observations = 4;
  config.env.inference_window = window;
  config.env.reward_bonus = static_cast<double>(num_cells);
  config.env.cost = 1.0;
  config.seed = seed;
  return config;
}

/// An independent 64-bit seed per (run seed, purpose) pair.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  drcell::SplitMix64 mix(seed * 0x100000001b3ull + salt);
  return mix.next();
}

}  // namespace perfbench
