#include "trace.h"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "linalg/backend.h"
#include "linalg/matrix.h"
#include "linalg/sparse_matrix.h"

namespace perfbench {

namespace {

// One per thread that ever records: spans and kernel counters are written
// only by their owning thread and read by the main thread between rounds,
// after the pool's batch completion has ordered the writes.
struct ThreadState {
  std::uint32_t tid = 0;
  std::vector<Span> spans;
  std::atomic<std::uint64_t> gram_add_calls{0};
  std::atomic<std::uint64_t> gram_add_flops{0};
  std::atomic<std::uint64_t> gemm_calls{0};
  std::atomic<std::uint64_t> gemm_flops{0};
  std::atomic<std::uint64_t> sparse_gemm_calls{0};
  std::atomic<std::uint64_t> lstm_gate_calls{0};
};

struct Registry {
  std::mutex mu;  // guards `threads` (registration and collection)
  std::vector<std::unique_ptr<ThreadState>> threads;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadState& this_thread_state() {
  thread_local ThreadState* state = nullptr;
  if (state == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.threads.push_back(std::make_unique<ThreadState>());
    state = r.threads.back().get();
    state->tid = static_cast<std::uint32_t>(r.threads.size());
  }
  return *state;
}

// Owner-only increment: the counter has a single writer, so a relaxed
// load/store pair is exact and avoids a locked read-modify-write.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

std::uint64_t flops(std::size_t m, std::size_t k, std::size_t n) {
  return 2ull * m * k * n;
}

class CountingBackend final : public drcell::ComputeBackend {
 public:
  explicit CountingBackend(const drcell::ComputeBackend& inner)
      : inner_(inner) {}

  const char* name() const override { return kCountingBackend; }
  bool exact_contract() const override { return inner_.exact_contract(); }
  double tolerance_vs_native() const override { return 0.0; }

  void matmul_into(const drcell::Matrix& a, const drcell::Matrix& b,
                   drcell::Matrix& out) const override {
    ThreadState& t = this_thread_state();
    bump(t.gemm_calls, 1);
    bump(t.gemm_flops, flops(a.rows(), a.cols(), b.cols()));
    inner_.matmul_into(a, b, out);
  }
  void matmul_transposed_other_into(const drcell::Matrix& a,
                                    const drcell::Matrix& b,
                                    drcell::Matrix& out) const override {
    ThreadState& t = this_thread_state();
    bump(t.gemm_calls, 1);
    bump(t.gemm_flops, flops(a.rows(), a.cols(), b.rows()));
    inner_.matmul_transposed_other_into(a, b, out);
  }
  void matmul_transposed_self_add(const drcell::Matrix& a,
                                  const drcell::Matrix& b,
                                  drcell::Matrix& out) const override {
    ThreadState& t = this_thread_state();
    bump(t.gram_add_calls, 1);
    bump(t.gram_add_flops, flops(a.cols(), a.rows(), b.cols()));
    inner_.matmul_transposed_self_add(a, b, out);
  }
  void sparse_matmul_into(const drcell::SparseRowMatrix& a,
                          const drcell::Matrix& b,
                          drcell::Matrix& out) const override {
    bump(this_thread_state().sparse_gemm_calls, 1);
    inner_.sparse_matmul_into(a, b, out);
  }
  void sparse_matmul_transposed_self_add(const drcell::SparseRowMatrix& a,
                                         const drcell::Matrix& b,
                                         drcell::Matrix& out) const override {
    bump(this_thread_state().sparse_gemm_calls, 1);
    inner_.sparse_matmul_transposed_self_add(a, b, out);
  }
  void lstm_gate_forward(const drcell::Matrix& z, const drcell::Matrix* c_prev,
                         drcell::Matrix& gates, drcell::Matrix& c,
                         drcell::Matrix& tanh_c,
                         drcell::Matrix& h) const override {
    bump(this_thread_state().lstm_gate_calls, 1);
    inner_.lstm_gate_forward(z, c_prev, gates, c, tanh_c, h);
  }
  void lstm_gate_backward(const drcell::Matrix& gates,
                          const drcell::Matrix& tanh_c,
                          const drcell::Matrix* c_prev,
                          const drcell::Matrix& dh,
                          const drcell::Matrix& dc_next, drcell::Matrix& dz,
                          drcell::Matrix& dc_prev) const override {
    bump(this_thread_state().lstm_gate_calls, 1);
    inner_.lstm_gate_backward(gates, tanh_c, c_prev, dh, dc_next, dz, dc_prev);
  }

 private:
  const drcell::ComputeBackend& inner_;
};

}  // namespace

std::atomic<bool> Tracer::on_{false};
std::atomic<std::uint32_t> Tracer::round_{0};

void Tracer::enable(bool on) { on_.store(on, std::memory_order_relaxed); }

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  ThreadState& t = this_thread_state();
  t.spans.push_back(
      {name, start_ns, end_ns, t.tid, round_.load(std::memory_order_relaxed)});
}

std::vector<Span> Tracer::collect() {
  std::vector<Span> all;
  Registry& r = registry();
  {
    const std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& t : r.threads)
      all.insert(all.end(), t->spans.begin(), t->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.end_ns > b.end_ns;
  });
  return all;
}

void Tracer::write_chrome_trace(std::ostream& out) {
  const std::vector<Span> spans = collect();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"round\":" << s.round << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void register_counting_backend() {
  if (drcell::BackendRegistry::find(kCountingBackend) != nullptr) return;
  const drcell::ComputeBackend* native =
      drcell::BackendRegistry::find("native");
  DRCELL_CHECK_MSG(native != nullptr, "the native backend is not registered");
  drcell::BackendRegistry::register_backend(
      std::make_unique<CountingBackend>(*native));
}

KernelCounts kernel_counts() {
  KernelCounts k;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& t : r.threads) {
    const auto read = [](const std::atomic<std::uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    k.gram_add_calls += read(t->gram_add_calls);
    k.gram_add_flops += read(t->gram_add_flops);
    k.gemm_calls += read(t->gemm_calls);
    k.gemm_flops += read(t->gemm_flops);
    k.sparse_gemm_calls += read(t->sparse_gemm_calls);
    k.lstm_gate_calls += read(t->lstm_gate_calls);
  }
  return k;
}

drcell::Matrix TracedEngine::infer(
    const drcell::cs::PartialMatrix& observed) const {
  const ScopedSpan span("cs.infer");
  return inner_->infer(observed);
}

std::vector<double> TracedEngine::loo_column_predictions(
    const drcell::cs::PartialMatrix& observed, std::size_t col) const {
  const ScopedSpan span("cs.loo");
  return inner_->loo_column_predictions(observed, col);
}

std::size_t TracedSelector::select(
    const drcell::mcs::SparseMcsEnvironment& env) {
  const ScopedSpan span("baselines.select");
  return inner_->select(env);
}

SpanTotal span_total(const std::vector<Span>& spans, const char* name) {
  SpanTotal total;
  const std::string key = name;
  for (const Span& s : spans) {
    if (key != s.name) continue;
    total.ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++total.calls;
  }
  return total;
}

double self_time_ms(const std::vector<Span>& spans, const char* parent,
                    const std::vector<std::string>& children) {
  const auto is_child = [&](const Span& s) {
    return std::find(children.begin(), children.end(), s.name) !=
           children.end();
  };
  const std::string parent_name = parent;
  // `spans` is sorted by start; children of a parent start inside it.
  double self_ns = 0.0;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    if (parent_name != p.name) continue;
    while (cursor < spans.size() && spans[cursor].start_ns < p.start_ns)
      ++cursor;
    std::int64_t covered = 0;
    std::int64_t reach = p.start_ns;  // end of the covered prefix
    for (std::size_t j = cursor;
         j < spans.size() && spans[j].start_ns < p.end_ns; ++j) {
      if (!is_child(spans[j])) continue;
      const std::int64_t lo = std::max(spans[j].start_ns, reach);
      const std::int64_t hi = std::min(spans[j].end_ns, p.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self_ns += static_cast<double>(p.end_ns - p.start_ns - covered);
  }
  return self_ns / 1e6;
}

}  // namespace perfbench
