// Tracing from outside the library: spans and counters recorded at the
// boundaries into each layer, through the library's own extension points
// only — an InferenceEngine decorator (cs), a CellSelector decorator
// (baselines) and a counting ComputeBackend registered beside `native`
// (linalg). Nothing here touches an RNG stream or alters an argument, so a
// traced run produces exactly the outputs of an untraced one.
//
// Spans are kept in memory (one buffer per thread, registered on first use)
// and written out as Chrome trace-event JSON when the benchmark ends.
// Kernel calls are too short to time without distorting them, so the
// backend only counts calls and flops.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "baselines/selector.h"
#include "cs/inference_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  /// The round the span belongs to: all spans of one round share it.
  std::uint32_t round = 0;
};

/// Process-wide span store. Recording is off until enable() and costs one
/// relaxed load per boundary while off.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled() { return on_.load(std::memory_order_relaxed); }
  static void set_round(std::uint32_t round) {
    round_.store(round, std::memory_order_relaxed);
  }
  static void record(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns);
  /// Every span recorded so far, merged over threads and sorted by start.
  /// Call only while no pooled work is in flight.
  static std::vector<Span> collect();
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  static void write_chrome_trace(std::ostream& out);

 private:
  static std::atomic<bool> on_;
  static std::atomic<std::uint32_t> round_;
};

/// RAII span: records [construction, destruction) when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), start_(Tracer::enabled() ? now_ns() : -1) {}
  ~ScopedSpan() {
    if (start_ >= 0) Tracer::record(name_, start_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::int64_t start_;
};

/// Kernel counters of the counting backend, summed over threads.
struct KernelCounts {
  std::uint64_t gram_add_calls = 0;   // matmul_transposed_self_add
  std::uint64_t gram_add_flops = 0;
  std::uint64_t gemm_calls = 0;       // matmul_into + transposed_other
  std::uint64_t gemm_flops = 0;
  std::uint64_t sparse_gemm_calls = 0;
  std::uint64_t lstm_gate_calls = 0;  // forward + backward
};

/// Registers the counting backend (once) under kCountingBackend; it
/// delegates every kernel to `native`.
void register_counting_backend();
inline constexpr const char* kCountingBackend = "perfbench-counting";
KernelCounts kernel_counts();

/// cs boundary: times infer() and loo_column_predictions() of the wrapped
/// engine and returns its results untouched.
class TracedEngine final : public drcell::cs::InferenceEngine {
 public:
  explicit TracedEngine(drcell::cs::InferenceEnginePtr inner)
      : inner_(std::move(inner)) {}
  drcell::Matrix infer(const drcell::cs::PartialMatrix& observed) const override;
  std::vector<double> loo_column_predictions(
      const drcell::cs::PartialMatrix& observed,
      std::size_t col) const override;
  std::string name() const override { return inner_->name(); }

 private:
  drcell::cs::InferenceEnginePtr inner_;
};

/// baselines boundary: times select() of the wrapped selector; every other
/// hook (on_step, checkpoint words, name) forwards unchanged.
class TracedSelector final : public drcell::baselines::CellSelector {
 public:
  explicit TracedSelector(std::shared_ptr<drcell::baselines::CellSelector> inner)
      : inner_(std::move(inner)) {}
  std::size_t select(const drcell::mcs::SparseMcsEnvironment& env) override;
  void on_step(const drcell::mcs::SparseMcsEnvironment& env, std::size_t action,
               const drcell::mcs::StepResult& result) override {
    inner_->on_step(env, action, result);
  }
  std::vector<std::uint64_t> checkpoint_state_words() const override {
    return inner_->checkpoint_state_words();
  }
  void restore_state_words(const std::vector<std::uint64_t>& words) override {
    inner_->restore_state_words(words);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<drcell::baselines::CellSelector> inner_;
};

/// Summed duration (ms) and count of the spans named `name`.
struct SpanTotal {
  double ms = 0.0;
  std::uint64_t calls = 0;
};
SpanTotal span_total(const std::vector<Span>& spans, const char* name);

/// Self time (ms) of the `parent` spans: each parent's duration minus the
/// part of its interval covered by spans named in `children` (on any
/// thread).
double self_time_ms(const std::vector<Span>& spans, const char* parent,
                    const std::vector<std::string>& children);

}  // namespace perfbench
