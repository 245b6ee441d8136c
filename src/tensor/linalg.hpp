// Dense linear-algebra solvers for geonas.
//
// The POD method-of-snapshots (DESIGN.md §2, paper eq. 3) needs a full
// symmetric eigendecomposition; the linear baseline needs a symmetric
// positive-definite solve. Both are implemented from scratch: a cyclic
// Jacobi eigensolver (robust, embarrassingly accurate for the modest
// Ns x Ns correlation matrices involved) and a Cholesky factorization.
//
// Jacobi order. A sweep runs the p-runs p = 0 .. n-2; p-run p applies
// the rotations (p, q), q = p+1 .. n-1, skipping |a_pq| <= 1e-300. Each
// rotation is defined by the plain loop: update columns p and q of A
// for every row k, then rows p and q of A, then rows p and q of V^T.
// eigen_symmetric gives exactly that loop's bits (a copy of the loop in
// tests/tensor_linalg_test.cpp is the reference), but does the work in
// another order:
//   - Column pass. For a row k outside {p, q}, nothing reads the entries
//     a_kp, a_kq that rotation (p, q) updates until row k's own rotation
//     (p, k), whose row pass reads all of row k, or the end of the run.
//     So the run records (q, c, s) and replays them later as one chain
//     along row k: x = a_kp, then per rotation a_kq <- s x + c a_kq,
//     x <- c x - s a_kq (old a_kq). Rows q are caught up in groups of
//     eight just before the group's first rotation and kept current
//     while the group's rotations run; rows above p and each group's
//     rows replay the rest of the run at its end, eight at a time.
//   - Row pass. Rows p and q of A are rotated in place, one rotation at
//     a time. The next rotation's angle is computed before the row pass
//     from the entries that pass would leave, with the same operations.
//   - V^T. Nothing reads V^T during a sweep, so each batch of p-runs is
//     applied afterwards, column block by column block, with row p's
//     block carried in registers through its run.
// Every element therefore sees the same multiplies and adds, with the
// same operands, in the same order. Kernel tiers (AVX-512, portable)
// differ only in which elements they compute at once, and the source
// is compiled without FMA contraction, so the bits are the same on
// every host and under -march=native.
//
// No symmetric shortcut. The iterates are symmetric in exact
// arithmetic but not in floating point: at the end of the quick-scale
// POD solve (n = 427) every one of the 181,902 off-diagonal entries
// differs in its last bits from its transpose. The solver therefore
// updates and reads both triangles; taking one for the other would
// change the eigenpairs.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "tensor/matrix.hpp"

namespace geonas {

/// Result of a symmetric eigendecomposition A = V diag(lambda) V^T with
/// eigenvalues sorted in descending order and V's columns the matching
/// orthonormal eigenvectors.
struct EigenResult {
  std::vector<double> eigenvalues;
  Matrix eigenvectors;  // column i is the eigenvector for eigenvalues[i]
  int sweeps = 0;       // Jacobi sweeps used
};

/// Cyclic Jacobi eigensolver for a symmetric matrix.
/// Throws std::invalid_argument for non-square input. tol is the threshold
/// on the off-diagonal Frobenius norm relative to the matrix norm.
/// Scratch is O(n) besides the n x n copies of A and V.
[[nodiscard]] EigenResult eigen_symmetric(const Matrix& a, double tol = 1e-12,
                                          int max_sweeps = 100);

namespace detail {

/// Names of the Jacobi kernel tiers this host can run, fastest first;
/// eigen_symmetric runs the first. Every tier gives the same bits.
[[nodiscard]] std::vector<std::string> jacobi_host_tiers();

/// Test seam: eigen_symmetric on the named kernel tier. Throws
/// std::invalid_argument for an unknown tier or one this host cannot
/// run.
[[nodiscard]] EigenResult eigen_symmetric_on_tier(std::string_view tier,
                                                  const Matrix& a,
                                                  double tol = 1e-12,
                                                  int max_sweeps = 100);

}  // namespace detail

/// Cholesky factorization A = L L^T for symmetric positive-definite A.
/// Returns lower-triangular L. Throws std::domain_error if A is not SPD
/// (after adding `jitter` to the diagonal).
[[nodiscard]] Matrix cholesky(const Matrix& a, double jitter = 0.0);

/// Solves A x = b for SPD A via Cholesky. b may have multiple columns.
[[nodiscard]] Matrix solve_spd(const Matrix& a, const Matrix& b,
                               double jitter = 0.0);

/// Solves the regularized normal equations (X^T X + lambda I) w = X^T y.
/// Used by the ridge/OLS baseline. y may have multiple output columns.
[[nodiscard]] Matrix solve_normal_equations(const Matrix& x, const Matrix& y,
                                            double lambda = 0.0);

/// Forward/back substitution with a lower-triangular factor L.
[[nodiscard]] Matrix cholesky_solve(const Matrix& l, const Matrix& b);

}  // namespace geonas
