// Linear solvers built on the decompositions. The ALS matrix-completion
// engine runs thousands of small ridge solves per sensing cycle (one per
// row and column of every half-sweep, two per held-out cell of the
// leave-one-out gate), so ridge_solve_rows is the hot kernel: it reads the
// design rows through pointers, builds the Gram matrix and the rhs in one
// pass, and factors in a caller-owned RidgeWorkspace — no allocation and no
// backend dispatch per solve. Like Cholesky, it sits below the compute-
// backend registry: its arithmetic is the same under every backend.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace drcell {

/// Scratch for ridge_solve_rows on systems of up to `capacity` unknowns:
/// the Gram matrix, its Cholesky factor and the rhs. Allocate once per
/// worker (or chunk) and reuse it across solves.
struct RidgeWorkspace {
  explicit RidgeWorkspace(std::size_t capacity)
      : gram(capacity * capacity), factor(capacity * capacity),
        rhs(capacity) {}
  std::vector<double> gram;    ///< lower triangle of AᵀA + λI (+ jitter)
  std::vector<double> factor;  ///< its Cholesky factor L
  std::vector<double> rhs;     ///< Aᵀb, then L⁻¹Aᵀb
};

/// Solves the ridge-regularised least squares problem
///   min_x ||A x - b||² + lambda ||x||²
/// via the normal equations (Aᵀ A + λ I) x = Aᵀ b with Cholesky, where row
/// j of A is rows[j][0 .. x.size()). Gram entry (i, j) accumulates its
/// terms in ascending row order, skipping rows whose a(k, i) is exactly
/// 0.0 — the addition order of Matrix::matmul_transposed_self_add, so the
/// result is bit-identical to composing that with Cholesky. A numerically
/// semidefinite Gram matrix gets an escalating scale-aware diagonal jitter;
/// only when the last attempt fails does the kernel throw CheckError.
/// Allocates nothing; `ws` must have capacity for x.size() unknowns.
void ridge_solve_rows(std::span<const double* const> rows,
                      std::span<const double> b, double lambda,
                      RidgeWorkspace& ws, std::span<double> x);

/// ridge_solve_rows over the rows of a dense A (allocates its workspace).
std::vector<double> ridge_solve(const Matrix& a, std::span<const double> b,
                                double lambda);

/// Solves a symmetric positive-definite system A x = b.
std::vector<double> spd_solve(const Matrix& a, std::span<const double> b);

/// Solves a general square system A x = b by partially pivoted LU.
/// Throws CheckError if the matrix is numerically singular.
std::vector<double> lu_solve(Matrix a, std::vector<double> b);

}  // namespace drcell
