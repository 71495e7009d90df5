// The benchmark's round loop and the pieces every workload shares.
//
// A run is: a few standalone set-ups (timed, then discarded), then whole
// rounds until the measuring time is used up. A round is one set-up plus
// one complete pass of the workload (a full fleet to its last cycle, or a
// fixed number of training episodes), so every run attempts whole rounds of
// the same operations. Each round's outputs are checked and must equal
// round 0's bit for bit; after the last round the workload runs its
// reference checks (solo campaign, checkpoint/resume, core::train_agent).
//
// With tracing on, even rounds run untraced and odd rounds traced, so the
// equality check doubles as the traced-vs-untraced bit-identity check and
// the tracing overhead compares rounds measured side by side.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything a run reports back; the Python wrapper turns it into metrics.
struct Outcome {
  std::vector<std::string> problems;  // failed output checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t rounds = 0;
  std::uint64_t cycles = 0;  // sensing (or training) cycles, measured rounds
  double run_s = 0.0;        // time inside the measured step loops
  std::vector<double> setup_s;
  std::vector<double> step_ms;
  std::vector<std::size_t> round_steps;  // step samples of each round, in order
  std::vector<std::pair<std::string, double>> layers;  // traced runs only
  std::vector<std::pair<std::string, std::string>> info;

  void problem(std::string what) { problems.push_back(std::move(what)); }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
};

/// What one round's step loop did.
struct RoundStats {
  std::uint64_t cycles = 0;
  std::uint64_t steps = 0;   // operations attempted
  std::uint64_t failed = 0;  // operations that failed
  double run_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs and state of one round; `traced` installs the span
  /// decorators. Replaces whatever an earlier set-up built.
  virtual void setup(bool traced) = 0;
  /// Runs the built round to its end, appending one latency per step.
  virtual RoundStats run(std::vector<double>& step_ms) = 0;
  /// Output checks of the round just run (accounting, error).
  virtual void check_round(Outcome& out) = 0;
  /// Bit-exact digest of the round's outputs.
  virtual std::uint64_t digest() = 0;
  /// Checks against the library's own reference paths, run once after the
  /// measured rounds, on inputs they build afresh.
  virtual void final_checks(Outcome& out) = 0;
  /// Workload-specific per-layer metrics (domain figures of the last round,
  /// set-up counters, checkpoint costs); called after final_checks.
  virtual void layer_metrics(Outcome& out) = 0;
  /// Standalone set-ups timed before the rounds.
  virtual std::size_t extra_setups() const = 0;
};

std::unique_ptr<Workload> make_paper_train();
std::unique_ptr<Workload> make_paper_fleet(std::uint64_t seed);
std::unique_ptr<Workload> make_city_fleet(std::uint64_t seed);

/// Runs the rounds of `w` as described at the top of this file.
Outcome run_workload(Workload& w, const Options& options);

/// FNV-1a over the bytes of whatever is fed in.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace perfbench
