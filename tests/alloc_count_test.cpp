// Heap-allocation pins for the ALS ridge solves. Global operator new is
// replaced with a counting wrapper, so this suite is its own executable
// (the counter would otherwise see every other test's allocations).
//
//  * ridge_solve_rows allocates nothing: the Gram matrix, the factor and the
//    rhs live in the caller's RidgeWorkspace.
//  * A cold fit allocates the same number of times at 2 and at 8 ALS sweeps
//    (both stop tolerances off, so every sweep runs): the per-solve and
//    per-sweep scratch is allocated once per fit, never per solve.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "cs/matrix_completion.h"
#include "data/datasets.h"
#include "linalg/solvers.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
}  // namespace

// Every unaligned new/delete form is replaced so allocation and release
// always pair through malloc/free (also under ASan, which otherwise flags
// an operator-new block released by a replaced delete). Over-aligned forms
// keep the library defaults, a consistent pairing of their own.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace drcell {
namespace {

template <typename F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationCount, RidgeKernelAllocatesNothing) {
  Rng rng(3);
  const Matrix factors = random_normal_matrix(40, 5, rng);
  std::vector<const double*> rows;
  std::vector<double> b;
  for (std::size_t r = 0; r < 40; r += 3) {
    rows.push_back(factors.row(r).data());
    b.push_back(rng.normal());
  }
  RidgeWorkspace ws(5);
  std::vector<double> x(5);
  const std::size_t allocations = allocations_during([&] {
    for (int rep = 0; rep < 100; ++rep)
      ridge_solve_rows(rows, b, 0.005 * static_cast<double>(rows.size()), ws,
                       x);
    // lambda = 0 on fewer rows than unknowns: the jitter retry path.
    ridge_solve_rows({rows.data(), 3}, {b.data(), 3}, 0.0, ws, x);
  });
  EXPECT_EQ(allocations, 0u);
  for (const double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(AllocationCount, ColdFitAllocationsDoNotGrowWithSweeps) {
  // The 57 x 48 Sensor-Scope window of bench_micro_components.
  const auto task = data::make_sensorscope_like(2018).temperature;
  cs::PartialMatrix window(task.num_cells(), 48);
  Rng rng(3);
  for (std::size_t c = 0; c < 48; ++c)
    for (std::size_t cell = 0; cell < task.num_cells(); ++cell)
      if (c < 24 || rng.bernoulli(0.25))
        window.set(cell, c, task.truth(cell, c));

  util::ThreadPool serial(0);
  const auto infer_allocations = [&](std::size_t iterations) {
    cs::MatrixCompletionOptions options;
    options.warm_start = false;
    options.iterations = iterations;
    options.convergence_tol = 0.0;
    options.frobenius_tol = 0.0;
    cs::MatrixCompletion engine(options);
    engine.set_thread_pool(&serial);
    return allocations_during([&] { (void)engine.infer(window); });
  };
  (void)infer_allocations(1);  // first-use statics (backend registry etc.)
  const std::size_t two = infer_allocations(2);
  const std::size_t eight = infer_allocations(8);
  EXPECT_GT(two, 0u);  // the counter sees the fit's own buffers
  EXPECT_EQ(two, eight);
}

}  // namespace
}  // namespace drcell
