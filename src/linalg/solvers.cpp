#include "linalg/solvers.h"

#include <algorithm>
#include <cmath>

#include "linalg/decompositions.h"

namespace drcell {

void ridge_solve_rows(std::span<const double* const> rows,
                      std::span<const double> b, double lambda,
                      RidgeWorkspace& ws, std::span<double> x) {
  DRCELL_CHECK(rows.size() == b.size());
  DRCELL_CHECK(lambda >= 0.0);
  const std::size_t n = x.size();
  DRCELL_CHECK(ws.rhs.size() >= n);
  // The design rows never alias the workspace, so the Gram/rhs updates can
  // stay in flight across rows instead of being reloaded after each store.
  double* __restrict g = ws.gram.data();
  double* __restrict rhs = ws.rhs.data();
  // G = AᵀA + λI (lower triangle), rhs = Aᵀb, in one pass over the rows.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) g[i * n + j] = 0.0;
    rhs[i] = 0.0;
  }
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const double* __restrict row = rows[k];
    const double bk = b[k];
    for (std::size_t i = 0; i < n; ++i) {
      const double aki = row[i];
      rhs[i] += aki * bk;
      if (aki == 0.0) continue;
      double* __restrict gi = g + i * n;
      for (std::size_t j = 0; j <= i; ++j) gi[j] += aki * row[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) g[i * n + i] += lambda;
  // A fixed lambda can be negligible against extreme data scales, leaving
  // the Gram matrix numerically semidefinite. Escalate a scale-aware jitter
  // until the factorisation succeeds.
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += g[i * n + i];
  double jitter = 1e-12 * std::max(trace / static_cast<double>(n), 1.0);
  constexpr int kJitterAttempts = 8;
  for (int attempt = 0;; ++attempt) {
    if (cholesky_factor_lower(g, ws.factor.data(), n)) break;
    DRCELL_CHECK_MSG(attempt < kJitterAttempts,
                     "matrix is not positive definite");
    for (std::size_t i = 0; i < n; ++i) g[i * n + i] += jitter;
    jitter *= 100.0;
  }
  cholesky_substitute(ws.factor.data(), n, rhs, x.data());
}

std::vector<double> ridge_solve(const Matrix& a, std::span<const double> b,
                                double lambda) {
  std::vector<const double*> rows(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) rows[r] = a.row(r).data();
  RidgeWorkspace ws(a.cols());
  std::vector<double> x(a.cols());
  ridge_solve_rows(rows, b, lambda, ws, x);
  return x;
}

std::vector<double> spd_solve(const Matrix& a, std::span<const double> b) {
  return Cholesky(a).solve(b);
}

std::vector<double> lu_solve(Matrix a, std::vector<double> b) {
  DRCELL_CHECK_MSG(a.rows() == a.cols(), "lu_solve requires a square matrix");
  DRCELL_CHECK(a.rows() == b.size());
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting.
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::fabs(a(i, k)) > std::fabs(a(piv, k))) piv = i;
    DRCELL_CHECK_MSG(std::fabs(a(piv, k)) > 1e-300, "singular matrix");
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      std::swap(b[k], b[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a(i, k) / a(k, k);
      a(i, k) = 0.0;
      if (f == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= f * a(k, j);
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= a(ii, j) * x[j];
    x[ii] = s / a(ii, ii);
  }
  return x;
}

}  // namespace drcell
