#include "workload.h"

#include <algorithm>

#include "data/synthetic_field.h"
#include "linalg/backend.h"

namespace perfbench {

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

namespace {

// Enough step samples for a steady median latency, whatever the run length
// or the machine's speed.
constexpr std::size_t kMinSteps = 1000;

// Per-layer metrics only the fleets produce.
constexpr const char* kCheckpointLayers[] = {
    "core.checkpoint.bytes", "core.checkpoint_save_ms", "core.resume_ms"};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

void select_tracing(bool traced) {
  Tracer::enable(traced);
  drcell::BackendRegistry::set_active(traced ? kCountingBackend : "native");
}

/// The per-layer metrics derived from spans and kernel counters alone.
void generic_layer_metrics(const std::vector<Span>& spans,
                           const KernelCounts& k, double cycles,
                           double rounds, Outcome& out) {
  const auto per_cycle = [&](double v) { return v / cycles; };
  const auto add = [&](const char* name, double v) {
    out.layers.emplace_back(name, v);
  };
  add("linalg.gram_add.calls", per_cycle(static_cast<double>(k.gram_add_calls)));
  add("linalg.gram_add.flops", per_cycle(static_cast<double>(k.gram_add_flops)));
  add("linalg.gemm.calls", per_cycle(static_cast<double>(k.gemm_calls)));
  add("linalg.gemm.flops", per_cycle(static_cast<double>(k.gemm_flops)));
  add("linalg.sparse_gemm.calls",
      per_cycle(static_cast<double>(k.sparse_gemm_calls)));
  add("linalg.lstm_gate.calls",
      per_cycle(static_cast<double>(k.lstm_gate_calls)));

  const auto timed = [&](const char* span, const char* calls_name,
                         const char* ms_name) {
    const SpanTotal t = span_total(spans, span);
    if (calls_name != nullptr)
      add(calls_name, per_cycle(static_cast<double>(t.calls)));
    if (ms_name != nullptr) add(ms_name, per_cycle(t.ms));
  };
  timed("cs.loo", "cs.loo.calls", "cs.loo_ms");
  timed("cs.infer", "cs.infer.calls", "cs.infer_ms");
  timed("rl.train_step", "rl.train_step.calls", "rl.train_step_ms");
  timed("rl.select_action", nullptr, "rl.select_action_ms");
  timed("rl.observe", nullptr, "rl.observe_ms");
  timed("baselines.select", "baselines.select.calls", "baselines.select_ms");
  timed("core.wave", "core.wave.calls", nullptr);
  add("core.wave_self_ms",
      per_cycle(self_time_ms(spans, "core.wave",
                             {"cs.loo", "cs.infer", "baselines.select"})));
  add("mcs.step_self_ms",
      per_cycle(self_time_ms(spans, "mcs.step", {"cs.loo", "cs.infer"})));
  add("data.task_build_ms", span_total(spans, "data.task_build").ms / rounds);
}

}  // namespace

Outcome run_workload(Workload& w, const Options& options) {
  register_counting_backend();
  select_tracing(false);
  Outcome out;

  // Standalone set-ups: each pays the whole cold set-up, factorisations
  // included (the shared factor registry is emptied first).
  for (std::size_t i = 0; i < w.extra_setups(); ++i) {
    drcell::data::SyntheticFieldGenerator::reset_shared_factor_cache();
    const std::int64_t t0 = now_ns();
    w.setup(false);
    out.setup_s.push_back(seconds_since(t0));
  }

  const std::int64_t measure_start = now_ns();
  std::uint64_t reference = 0;
  std::uint64_t traced_cycles = 0;
  double traced_run_s = 0.0;
  double untraced_run_s = 0.0;
  std::uint64_t untraced_cycles = 0;
  KernelCounts kernels;
  std::string round_s;
  std::size_t traced_rounds = 0;
  for (std::uint32_t round = 0;; ++round) {
    // Traced runs alternate: even rounds untraced, odd rounds traced, so the
    // overhead estimate compares rounds measured side by side.
    const bool traced = options.trace && round % 2 == 1;
    Tracer::set_round(round);
    select_tracing(traced);
    drcell::data::SyntheticFieldGenerator::reset_shared_factor_cache();
    const std::int64_t t0 = now_ns();
    w.setup(traced);
    out.setup_s.push_back(seconds_since(t0));

    const KernelCounts before = kernel_counts();
    const std::size_t first_step = out.step_ms.size();
    const RoundStats stats = w.run(out.step_ms);
    out.round_steps.push_back(out.step_ms.size() - first_step);
    const KernelCounts after = kernel_counts();
    select_tracing(false);

    out.rounds += 1;
    round_s += (round ? " " : "") + std::to_string(stats.run_s);
    out.cycles += stats.cycles;
    out.run_s += stats.run_s;
    out.attempted += stats.steps + stats.failed;
    out.failed += stats.failed;
    if (traced) {
      ++traced_rounds;
      traced_cycles += stats.cycles;
      traced_run_s += stats.run_s;
      kernels.gram_add_calls += after.gram_add_calls - before.gram_add_calls;
      kernels.gram_add_flops += after.gram_add_flops - before.gram_add_flops;
      kernels.gemm_calls += after.gemm_calls - before.gemm_calls;
      kernels.gemm_flops += after.gemm_flops - before.gemm_flops;
      kernels.sparse_gemm_calls +=
          after.sparse_gemm_calls - before.sparse_gemm_calls;
      kernels.lstm_gate_calls += after.lstm_gate_calls - before.lstm_gate_calls;
    } else {
      untraced_cycles += stats.cycles;
      untraced_run_s += stats.run_s;
    }

    w.check_round(out);
    const std::uint64_t d = w.digest();
    if (round == 0) {
      reference = d;
    } else if (d != reference) {
      out.problem("round " + std::to_string(round) +
                  (traced ? " (traced)" : "") +
                  " produced different outputs than round 0");
    }
    const bool time_left = seconds_since(measure_start) < options.seconds;
    const bool need_traced_round = options.trace && traced_rounds == 0;
    const bool need_samples = out.step_ms.size() < kMinSteps;
    if (!time_left && !need_traced_round && !need_samples) break;
  }

  out.note("round_s", round_s);
  w.final_checks(out);

  if (options.trace) {
    const std::vector<Span> spans = Tracer::collect();
    const double cycles = static_cast<double>(std::max<std::uint64_t>(1, traced_cycles));
    generic_layer_metrics(spans, kernels, cycles,
                          static_cast<double>(traced_rounds), out);
    w.layer_metrics(out);
    // A layer the workload never enters reads 0.
    for (const char* name : kCheckpointLayers)
      if (std::none_of(out.layers.begin(), out.layers.end(),
                       [&](const auto& l) { return l.first == name; }))
        out.layers.emplace_back(name, 0.0);
    if (untraced_cycles > 0 && traced_cycles > 0) {
      const double untraced_ms = untraced_run_s * 1e3 / untraced_cycles;
      const double traced_ms = traced_run_s * 1e3 / traced_cycles;
      out.note("untraced_ms_per_cycle", std::to_string(untraced_ms));
      out.note("traced_ms_per_cycle", std::to_string(traced_ms));
      out.note("tracing_overhead_pct",
               std::to_string(100.0 * (traced_ms - untraced_ms) / untraced_ms));
    }
  }
  return out;
}

}  // namespace perfbench
