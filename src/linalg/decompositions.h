// Matrix decompositions: Cholesky, Householder QR and one-sided Jacobi SVD.
// These back the GP dataset generator (Cholesky of covariance kernels), the
// ridge solvers used by ALS matrix completion, and spectral diagnostics.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace drcell {

/// The one Cholesky body: factors the lower triangle of the n x n row-major
/// matrix `a` into the lower triangle of `l` (both with row stride n; the
/// upper triangle of `l` is left untouched). Returns false, with `l`
/// partially written, when a pivot is not positive (or is NaN). Cholesky and
/// the fused ridge kernel (linalg/solvers.h) both factor through it.
bool cholesky_factor_lower(const double* a, double* l, std::size_t n);

/// Solves L Lᵀ x = b for the lower-triangular factor `l` (row stride n).
/// `b` is overwritten with the forward-substitution result L⁻¹ b.
void cholesky_substitute(const double* l, std::size_t n, double* b,
                         double* x);

/// Cholesky factorisation A = L Lᵀ of a symmetric positive-definite matrix.
/// Throws CheckError if A is not square or not (numerically) SPD.
struct Cholesky {
  explicit Cholesky(const Matrix& a);

  /// Solves A x = b using the factorisation.
  std::vector<double> solve(std::span<const double> b) const;

  Matrix l;  ///< lower-triangular factor
};

/// Householder QR factorisation A = Q R (A is rows x cols, rows >= cols).
struct QR {
  explicit QR(const Matrix& a);

  /// Least-squares solution of min ||A x - b||₂ via R x = Qᵀ b.
  std::vector<double> solve(std::span<const double> b) const;

  Matrix q;  ///< rows x cols with orthonormal columns (thin Q)
  Matrix r;  ///< cols x cols upper triangular
};

/// Thin singular value decomposition A = U diag(s) Vᵀ via one-sided Jacobi
/// rotations. Singular values are returned in descending order.
struct SVD {
  explicit SVD(const Matrix& a, int max_sweeps = 60, double tol = 1e-12);

  Matrix u;                       ///< rows x k, orthonormal columns
  std::vector<double> singular;   ///< k singular values, descending
  Matrix v;                       ///< cols x k, orthonormal columns

  /// Effective numerical rank at the given relative threshold.
  std::size_t rank(double rel_tol = 1e-10) const;
  /// Reconstructs U diag(s) Vᵀ (for testing).
  Matrix reconstruct() const;
};

}  // namespace drcell
