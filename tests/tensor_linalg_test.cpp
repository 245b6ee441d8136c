// Eigensolver and Cholesky solver properties: known spectra, orthogonality,
// reconstruction, SPD solves, and normal-equation regression. Includes
// parameterized sweeps over matrix sizes, and bitwise equality of the
// deferred-chain Jacobi solver with the plain rotation loop it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "tensor/blas.hpp"
#include "tensor/linalg.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

Matrix random_spd(std::size_t n, Rng& rng, double ridge = 0.5) {
  Matrix a(n, n);
  for (double& v : a.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix spd = matmul_at_b(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += ridge;
  return spd;
}

Matrix random_symmetric(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

/// POD-like Gram matrix S^T S with a decaying spectrum: S = G F with the
/// rows of F scaled by 0.8^k. Summed in plain loops so the bits do not
/// depend on the GEMM tier.
Matrix pod_like_gram(std::size_t n, Rng& rng) {
  const std::size_t m = 2 * n + 10;
  Matrix f(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const double scale = std::pow(0.8, static_cast<double>(k));
    for (std::size_t j = 0; j < n; ++j) f(k, j) = scale * rng.normal();
  }
  Matrix g(m, n);
  for (double& v : g.flat()) v = rng.normal();
  Matrix snaps(m, n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) snaps(i, j) += g(i, k) * f(k, j);
    }
  }
  Matrix gram(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < m; ++r) acc += snaps(r, i) * snaps(r, j);
      gram(i, j) = acc;
    }
  }
  return gram;
}

/// Symmetric matrix whose entries are exactly zero unless blk(i) ==
/// blk(j): contiguous blocks when `interleave` is false, otherwise
/// i % 3 classes, so zero pivots (the |apq| <= 1e-300 skip) fall inside
/// every group of rotations.
Matrix block_diagonal(std::size_t n, bool interleave, Rng& rng) {
  const auto blk = [&](std::size_t i) {
    return interleave ? i % 3 : i / 5;
  };
  Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (blk(i) == blk(j)) a(i, j) = a(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  return a;
}

/// The Jacobi solver as it stood before the deferred-chain rewrite,
/// kept verbatim as the bitwise reference: every rotation updates
/// columns p and q of A (strided), then rows p and q of A and of V^T.
EigenResult reference_eigen_symmetric(const Matrix& input, double tol,
                                      int max_sweeps) {
  const auto offdiag_norm = [](const Matrix& a) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < a.cols(); ++j) {
        if (i != j) acc += a(i, j) * a(i, j);
      }
    }
    return std::sqrt(acc);
  };
  const auto rotate_rows = [](double* x, double* y, std::size_t n, double c,
                              double s) {
    for (std::size_t k = 0; k < n; ++k) {
      const double xk = x[k];
      const double yk = y[k];
      x[k] = c * xk - s * yk;
      y[k] = s * xk + c * yk;
    }
  };
  const std::size_t n = input.rows();
  Matrix a = input;
  Matrix vt = Matrix::identity(n);
  double* const ad = a.flat().data();
  double* const vd = vt.flat().data();
  const double scale = std::max(a.frobenius_norm(), 1e-300);

  int sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    if (offdiag_norm(a) <= tol * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = ad[p * n + q];
        if (std::abs(apq) <= 1e-300) continue;
        const double app = ad[p * n + p];
        const double aqq = ad[q * n + q];
        // Stable rotation angle computation (Golub & Van Loan 8.4).
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = ad[k * n + p];
          const double akq = ad[k * n + q];
          ad[k * n + p] = c * akp - s * akq;
          ad[k * n + q] = s * akp + c * akq;
        }
        rotate_rows(ad + p * n, ad + q * n, n, c, s);
        rotate_rows(vd + p * n, vd + q * n, n, c, s);
      }
    }
  }

  EigenResult result;
  result.sweeps = sweep;
  result.eigenvalues.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.eigenvalues[i] = a(i, i);

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return result.eigenvalues[x] > result.eigenvalues[y];
  });
  std::vector<double> sorted_vals(n);
  Matrix sorted_vecs(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted_vals[i] = result.eigenvalues[order[i]];
    const double* vec = vd + order[i] * n;
    for (std::size_t r = 0; r < n; ++r) sorted_vecs(r, i) = vec[r];
  }
  result.eigenvalues = std::move(sorted_vals);
  result.eigenvectors = std::move(sorted_vecs);
  return result;
}

/// memcmp equality of eigenvalues, eigenvectors and sweep count.
void expect_bitwise_equal(const EigenResult& got, const EigenResult& want,
                          const std::string& label) {
  EXPECT_EQ(got.sweeps, want.sweeps) << label;
  ASSERT_EQ(got.eigenvalues.size(), want.eigenvalues.size()) << label;
  ASSERT_EQ(got.eigenvectors.size(), want.eigenvectors.size()) << label;
  EXPECT_EQ(std::memcmp(got.eigenvalues.data(), want.eigenvalues.data(),
                        want.eigenvalues.size() * sizeof(double)),
            0)
      << label << ": eigenvalues differ";
  EXPECT_EQ(std::memcmp(got.eigenvectors.flat().data(),
                        want.eigenvectors.flat().data(),
                        want.eigenvectors.size() * sizeof(double)),
            0)
      << label << ": eigenvectors differ";
}

TEST(Eigen, DiagonalMatrix) {
  Matrix d(3, 3, 0.0);
  d(0, 0) = 1.0;
  d(1, 1) = 5.0;
  d(2, 2) = 3.0;
  const EigenResult r = eigen_symmetric(d);
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_NEAR(r.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[2], 1.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const Matrix a{{2, 1}, {1, 2}};
  const EigenResult r = eigen_symmetric(a);
  EXPECT_NEAR(r.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(r.eigenvalues[1], 1.0, 1e-12);
}

/// FNV-1a over the bytes of a double sequence.
std::uint64_t fnv1a(std::span<const double> values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double d : values) {
    unsigned char bytes[sizeof d];
    std::memcpy(bytes, &d, sizeof d);
    for (const unsigned char b : bytes) h = (h ^ b) * 1099511628211ULL;
  }
  return h;
}

TEST(Eigen, GoldenHashOnSeededSymmetric) {
  // Captured before the Jacobi solver switched to accumulating V
  // transposed: the POD basis depends on these bits, so any change in
  // rotation order or arithmetic must show up here.
  Rng rng(64);
  const EigenResult e = eigen_symmetric(random_symmetric(64, rng));
  EXPECT_EQ(e.sweeps, 8);
  EXPECT_EQ(fnv1a(e.eigenvalues), 0xfd7f83431403f876ULL);
  EXPECT_EQ(fnv1a(e.eigenvectors.flat()), 0xeb7592ef56ce60c2ULL);
}

TEST(Eigen, GoldenHashOnSeededGram) {
  // Captured from the plain rotation loop (reference_eigen_symmetric)
  // before the deferred-chain rewrite, on a POD-shaped input.
  Rng rng(131);
  const EigenResult e = eigen_symmetric(pod_like_gram(131, rng));
  EXPECT_EQ(e.sweeps, 12);
  EXPECT_EQ(fnv1a(e.eigenvalues), 0xb01a0a46535d18ddULL);
  EXPECT_EQ(fnv1a(e.eigenvectors.flat()), 0xdbaf8bc0db827f85ULL);
}

TEST(Eigen, NonSquareThrows) {
  EXPECT_THROW((void)eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

class EigenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSweep, ReconstructionAndOrthogonality) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = random_symmetric(n, rng);
  const EigenResult r = eigen_symmetric(a);

  // Eigenvalues descending.
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_GE(r.eigenvalues[i - 1], r.eigenvalues[i] - 1e-12);
  }
  // V^T V == I.
  const Matrix vtv = matmul_at_b(r.eigenvectors, r.eigenvectors);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
  // V diag(lambda) V^T == A.
  Matrix vl = r.eigenvectors;
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t row = 0; row < n; ++row) vl(row, c) *= r.eigenvalues[c];
  }
  const Matrix recon = matmul_a_bt(vl, r.eigenvectors);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    EXPECT_NEAR(recon.flat()[i], a.flat()[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSweep,
                         ::testing::Values<std::size_t>(2, 3, 5, 8, 16, 33));

TEST(EigenTiers, HostTiersEndWithPortable) {
  const std::vector<std::string> tiers = detail::jacobi_host_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.back(), "portable");
#if defined(__x86_64__) && defined(__GNUC__)
  EXPECT_EQ(std::find(tiers.begin(), tiers.end(), "avx512f") != tiers.end(),
            __builtin_cpu_supports("avx512f") != 0);
#endif
  EXPECT_THROW((void)detail::eigen_symmetric_on_tier("no-such-tier",
                                                     Matrix(2, 2, 1.0)),
               std::invalid_argument);
}

class EigenBitwise : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenBitwise, MatchesReferenceRotationLoop) {
  const std::size_t n = GetParam();
  Rng rng(500 + n);
  std::vector<std::pair<std::string, Matrix>> inputs;
  inputs.emplace_back("random", random_symmetric(n, rng));
  inputs.emplace_back("gram", pod_like_gram(n, rng));
  Matrix diag(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) diag(i, i) = rng.uniform(-2.0, 2.0);
  inputs.emplace_back("diagonal", diag);
  inputs.emplace_back("blocks", block_diagonal(n, false, rng));
  inputs.emplace_back("interleaved-blocks", block_diagonal(n, true, rng));
  // Transposed entries that differ in their low bits: the solver must
  // read each entry itself, never its mirror.
  Matrix skewed = random_symmetric(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) skewed(i, j) *= 1.0 + 0x1p-50;
  }
  inputs.emplace_back("bitwise-asymmetric", skewed);

  for (const auto& [name, a] : inputs) {
    const EigenResult want = reference_eigen_symmetric(a, 1e-12, 100);
    // A sweep cap stops mid-convergence, where few entries are small.
    const EigenResult want_capped = reference_eigen_symmetric(a, 1e-12, 2);
    const std::string label = name + " n=" + std::to_string(n);
    expect_bitwise_equal(eigen_symmetric(a), want, label);
    for (const std::string& tier : detail::jacobi_host_tiers()) {
      expect_bitwise_equal(detail::eigen_symmetric_on_tier(tier, a), want,
                           label + " tier=" + tier);
      expect_bitwise_equal(detail::eigen_symmetric_on_tier(tier, a, 1e-12, 2),
                           want_capped,
                           label + " tier=" + tier + " max_sweeps=2");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenBitwise,
                         ::testing::Values<std::size_t>(1, 2, 3, 7, 8, 9, 15,
                                                        16, 17, 33, 64, 131,
                                                        200));

TEST(Cholesky, FactorizationReconstructs) {
  Rng rng(7);
  const Matrix a = random_spd(6, rng);
  const Matrix l = cholesky(a);
  const Matrix llt = matmul_a_bt(l, l);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(llt.flat()[i], a.flat()[i], 1e-10);
  }
  // Upper triangle of L is zero.
  for (std::size_t i = 0; i < l.rows(); ++i) {
    for (std::size_t j = i + 1; j < l.cols(); ++j) {
      EXPECT_DOUBLE_EQ(l(i, j), 0.0);
    }
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3 and -1
  EXPECT_THROW((void)cholesky(a), std::domain_error);
}

TEST(Cholesky, SolveSpd) {
  Rng rng(8);
  const Matrix a = random_spd(5, rng);
  Matrix x_true(5, 2);
  for (double& v : x_true.flat()) v = rng.uniform(-2.0, 2.0);
  const Matrix b = matmul(a, x_true);
  const Matrix x = solve_spd(a, b);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x.flat()[i], x_true.flat()[i], 1e-8);
  }
}

TEST(NormalEquations, RecoversLinearModel) {
  Rng rng(9);
  const std::size_t n = 200, f = 4, o = 2;
  Matrix x(n, f);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix w_true(f, o);
  for (double& v : w_true.flat()) v = rng.uniform(-1.0, 1.0);
  const Matrix y = matmul(x, w_true);
  const Matrix w = solve_normal_equations(x, y, 0.0);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w.flat()[i], w_true.flat()[i], 1e-7);
  }
}

TEST(NormalEquations, RidgeShrinks) {
  Rng rng(10);
  const std::size_t n = 50, f = 3;
  Matrix x(n, f);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  Matrix w_true(f, 1, 1.0);
  const Matrix y = matmul(x, w_true);
  const Matrix w0 = solve_normal_equations(x, y, 0.0);
  const Matrix w_ridge = solve_normal_equations(x, y, 100.0);
  EXPECT_LT(w_ridge.frobenius_norm(), w0.frobenius_norm());
}

}  // namespace
}  // namespace geonas
