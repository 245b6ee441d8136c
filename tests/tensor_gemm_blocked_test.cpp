// Oracle tests for the blocked/threaded GEMM kernel layer: every path
// (packing, edge tiles, transposed reads, strided C, alpha/beta
// handling, thread splitting, aliasing fallback) is checked against a
// naive triple-loop reference over adversarial shapes. The kernel tiers
// are checked against each other bit for bit, and against a hash of the
// results pinned before the AVX-512 tier existed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/prepack.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

/// Restores the ambient kernel-pool configuration on scope exit so a
/// failing assertion cannot leak a pinned thread count into later tests.
struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    hpc::set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { hpc::set_kernel_threads(0); }
};

void expect_matches_naive(const Matrix& a, const Matrix& b, double tol) {
  const Matrix fast = matmul(a, b);
  const Matrix ref = naive_matmul(a, b);
  ASSERT_EQ(fast.rows(), ref.rows());
  ASSERT_EQ(fast.cols(), ref.cols());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    ASSERT_NEAR(fast.flat()[i], ref.flat()[i], tol) << "flat index " << i;
  }
}

TEST(BlockedGemm, OracleOverNonSquareAndEdgeShapes) {
  // 1x1, single-row/column, primes straddling the register tile, and
  // shapes larger than one cache block in every dimension.
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {1, 1, 7},    {1, 9, 1},     {6, 1, 1},    {1, 17, 13},
      {13, 1, 17}, {13, 17, 1},  {2, 3, 4},     {4, 8, 4},    {5, 9, 3},
      {7, 13, 31}, {31, 7, 13},  {97, 53, 61},  {101, 8, 4},  {3, 103, 5},
      {64, 64, 64}, {130, 70, 190}, {97, 300, 11},
  };
  Rng rng(1234);
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[2], rng);
    const Matrix b = random_matrix(s[2], s[1], rng);
    SCOPED_TRACE(::testing::Message() << "m=" << s[0] << " n=" << s[1]
                                      << " k=" << s[2]);
    expect_matches_naive(a, b, 1e-11 * static_cast<double>(s[2] + 1));
  }
}

TEST(BlockedGemm, AlphaBetaCombinations) {
  Rng rng(77);
  const Matrix a = random_matrix(23, 29, rng);
  const Matrix b = random_matrix(29, 17, rng);
  const Matrix ref = naive_matmul(a, b);
  const double alphas[] = {0.0, 1.0, 0.5, -2.0};
  const double betas[] = {0.0, 1.0, 0.25, -1.0};
  for (const double alpha : alphas) {
    for (const double beta : betas) {
      Matrix c = random_matrix(23, 17, rng);
      const Matrix c0 = c;
      gemm(a, b, c, alpha, beta);
      SCOPED_TRACE(::testing::Message() << "alpha=" << alpha
                                        << " beta=" << beta);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_NEAR(c.flat()[i], alpha * ref.flat()[i] + beta * c0.flat()[i],
                    1e-12);
      }
    }
  }
}

TEST(BlockedGemm, TransposedReadsMatchMaterializedTransposes) {
  Rng rng(91);
  const Matrix a = random_matrix(37, 11, rng);
  const Matrix b = random_matrix(37, 19, rng);
  const Matrix atb = matmul_at_b(a, b);
  const Matrix atb_ref = naive_matmul(a.transposed(), b);
  for (std::size_t i = 0; i < atb.size(); ++i) {
    ASSERT_NEAR(atb.flat()[i], atb_ref.flat()[i], 1e-12);
  }
  const Matrix d = random_matrix(29, 11, rng);
  const Matrix abt = matmul_a_bt(a, d);
  const Matrix abt_ref = naive_matmul(a, d.transposed());
  for (std::size_t i = 0; i < abt.size(); ++i) {
    ASSERT_NEAR(abt.flat()[i], abt_ref.flat()[i], 1e-12);
  }
}

TEST(BlockedGemm, StridedSubmatrixUpdateLeavesNeighborsUntouched) {
  // The recurrent layers update column blocks of a wider C in place
  // (ldc > n) and read strided operands; verify against per-element
  // reference and check the sentinel columns outside the block.
  Rng rng(55);
  const std::size_t m = 21, n = 10, k = 13, ldc = 27, lda = 19;
  std::vector<double> a_buf(m * lda);
  for (double& v : a_buf) v = rng.uniform(-1.0, 1.0);
  const Matrix b = random_matrix(k, n, rng);
  std::vector<double> c_buf(m * ldc, 123.5);
  const std::size_t col0 = 9;  // C block lives at columns [9, 19)
  gemm_raw(Trans::kNone, Trans::kNone, m, n, k, 1.0, a_buf.data() + 2, lda,
           b.flat().data(), n, 0.0, c_buf.data() + col0, ldc);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < ldc; ++j) {
      const double got = c_buf[i * ldc + j];
      if (j < col0 || j >= col0 + n) {
        // geonas-lint: allow(float-eq-in-tests) sentinel must be bitwise untouched
        ASSERT_EQ(got, 123.5) << "sentinel overwritten at " << i << "," << j;
      } else {
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += a_buf[i * lda + 2 + p] * b(p, j - col0);
        }
        ASSERT_NEAR(got, acc, 1e-12);
      }
    }
  }
}

TEST(BlockedGemm, IdenticalResultsAcrossThreadCounts) {
  Rng rng(42);
  // 2 * 150 * 90 * 70 = 1.9 MFLOP: above the parallel_for threshold, so
  // the pool genuinely engages for counts > 1.
  const Matrix a = random_matrix(150, 70, rng);
  const Matrix b = random_matrix(70, 90, rng);
  Matrix reference;
  {
    KernelThreadsGuard guard(1);
    reference = matmul(a, b);
  }
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t counts[] = {1, 2, hw, hw + 3};
  for (const std::size_t threads : counts) {
    KernelThreadsGuard guard(threads);
    EXPECT_EQ(hpc::kernel_threads(), threads);
    const Matrix c = matmul(a, b);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    // The M-split never changes any element's summation order, so the
    // result is bitwise identical, not merely close.
    ASSERT_EQ(c, reference);
  }
}

TEST(BlockedGemm, AliasedOutputMatchesUnaliasedProduct) {
  Rng rng(7);
  // C is also A: gemm(a, b, a) must behave as if computed out of place.
  Matrix a = random_matrix(12, 12, rng);
  const Matrix a0 = a;
  const Matrix b = random_matrix(12, 12, rng);
  gemm(a0, b, a);
  const Matrix ref = naive_matmul(a0, b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.flat()[i], ref.flat()[i], 1e-12);
  }

  // C is both operands: gemm(a, a, a) squares the matrix.
  Matrix sq = random_matrix(9, 9, rng);
  const Matrix sq0 = sq;
  gemm(sq, sq, sq);
  const Matrix sq_ref = naive_matmul(sq0, sq0);
  for (std::size_t i = 0; i < sq.size(); ++i) {
    ASSERT_NEAR(sq.flat()[i], sq_ref.flat()[i], 1e-12);
  }

  // Aliased accumulate (beta != 0) must read the pre-call C.
  Matrix acc = random_matrix(12, 12, rng);
  const Matrix acc0 = acc;
  gemm(acc0, b, acc, 2.0, 0.5);
  const Matrix acc_ref = naive_matmul(acc0, b);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    ASSERT_NEAR(acc.flat()[i], 2.0 * acc_ref.flat()[i] + 0.5 * acc0.flat()[i],
                1e-12);
  }
}

TEST(BlockedGemm, AliasedOutputWithShapeMismatchStillSafe) {
  Rng rng(8);
  // gemm(a, b, a) where the product shape differs from a's shape: the
  // seed implementation would have resized (and corrupted) a before
  // reading it.
  Matrix a = random_matrix(6, 4, rng);
  const Matrix a0 = a;
  const Matrix b = random_matrix(4, 11, rng);
  gemm(a0, b, a);
  const Matrix ref = naive_matmul(a0, b);
  ASSERT_EQ(a.rows(), 6u);
  ASSERT_EQ(a.cols(), 11u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.flat()[i], ref.flat()[i], 1e-12);
  }
}

// ---------------------------------------------------------------------
// Kernel tiers: every FMA tier must produce the same bits.
// ---------------------------------------------------------------------

struct GemmCase {
  std::size_t m, n, k;
  bool trans_a, trans_b;
};

// Seeded operands for one case, stored with padded leading dimensions
// so strided reads and the C padding the GEMM must not touch are part
// of the comparison. B is a Matrix so a PackedPanels can pack it.
struct GemmOperands {
  std::size_t lda = 0, ldc = 0;
  std::vector<double> a;
  Matrix b;  // ldb = b.cols()
  std::vector<double> c;
};

GemmOperands make_operands(const GemmCase& g, std::uint64_t seed) {
  Rng rng(seed);
  GemmOperands op;
  op.lda = (g.trans_a ? g.m : g.k) + 1;
  op.a.resize((g.trans_a ? g.k : g.m) * op.lda);
  for (double& v : op.a) v = rng.uniform(-1.0, 1.0);
  op.b = Matrix(g.trans_b ? g.n : g.k, (g.trans_b ? g.k : g.n) + 2);
  for (double& v : op.b.flat()) v = rng.uniform(-1.0, 1.0);
  op.ldc = g.n + 3;
  op.c.resize(g.m * op.ldc);
  for (double& v : op.c) v = rng.uniform(-1.0, 1.0);
  return op;
}

constexpr double kSweepAlphas[] = {1.0, 0.7};
constexpr double kSweepBetas[] = {0.0, 1.0, -0.3};

// Calls fn(case, operands, pack) for every (m, n, k, trans_a, trans_b)
// of the given values, with operands seeded by the case's position.
template <typename Fn>
void for_each_case(const std::vector<std::size_t>& ms,
                   const std::vector<std::size_t>& ns,
                   const std::vector<std::size_t>& ks, Fn&& fn) {
  std::uint64_t seed = 0;
  for (const std::size_t m : ms) {
    for (const std::size_t n : ns) {
      for (const std::size_t k : ks) {
        for (const bool trans_a : {false, true}) {
          for (const bool trans_b : {false, true}) {
            const GemmCase g{m, n, k, trans_a, trans_b};
            const GemmOperands op = make_operands(g, ++seed);
            tensor::PackedPanels pack;
            pack.ensure_block(op.b,
                              trans_b ? Trans::kTranspose : Trans::kNone, 0,
                              trans_b ? k : n);
            fn(g, op, pack);
          }
        }
      }
    }
  }
}

// C after alpha * op(A) op(B) + beta * C on the named tier. A beta == 0
// call starts from NaN, so any read of the old C shows in the result.
std::vector<double> run_on_tier(const std::string& tier, bool prepacked,
                                const GemmCase& g, const GemmOperands& op,
                                const tensor::PackedPanels& pack,
                                double alpha, double beta) {
  std::vector<double> c = op.c;
  if (beta == 0.0) {
    std::fill(c.begin(), c.end(), std::numeric_limits<double>::quiet_NaN());
  }
  if (prepacked) {
    detail::gemm_blocked_packed_b_on_tier(tier, g.m, pack.n(), pack.k(),
                                          alpha, op.a.data(), op.lda,
                                          g.trans_a, pack.data(), beta,
                                          c.data(), op.ldc);
  } else {
    detail::gemm_blocked_on_tier(tier, g.m, g.n, g.k, alpha, op.a.data(),
                                 op.lda, g.trans_a, op.b.flat().data(),
                                 op.b.cols(), g.trans_b, beta, c.data(),
                                 op.ldc);
  }
  return c;
}

std::vector<std::string> fma_tiers() {
  std::vector<std::string> tiers;
  for (const std::string& tier : detail::gemm_host_tiers()) {
    if (tier != "portable") tiers.push_back(tier);
  }
  return tiers;
}

bool bitwise_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<double>& values) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

TEST(BlockedGemmTiers, HostTiersFollowCpuFeatures) {
  const std::vector<std::string> tiers = detail::gemm_host_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), tensor::gemm_kernel_name());
  EXPECT_EQ(tiers.back(), "portable");
#if defined(__x86_64__) && defined(__GNUC__)
  // Every tier the CPU can run is offered, so on an AVX-512 host the
  // sweeps below run both FMA tiers.
  const auto offered = [&](const char* name) {
    return std::find(tiers.begin(), tiers.end(), name) != tiers.end();
  };
  EXPECT_EQ(offered("avx512f"), __builtin_cpu_supports("avx512f") != 0);
  EXPECT_EQ(offered("avx2-fma"), __builtin_cpu_supports("avx2") != 0 &&
                                     __builtin_cpu_supports("fma") != 0);
#endif
  EXPECT_THROW(run_on_tier("no-such-tier", false, GemmCase{1, 1, 1, false,
                                                           false},
                           make_operands(GemmCase{1, 1, 1, false, false}, 1),
                           tensor::PackedPanels{}, 1.0, 0.0),
               std::invalid_argument);
}

TEST(BlockedGemmTiers, FmaTiersBitwiseIdenticalOverSeededSweep) {
  const std::vector<std::string> tiers = fma_tiers();
  if (tiers.empty()) GTEST_SKIP() << "this host has no FMA GEMM tier";
  // Tile heights 4/8/16 and their edges, several kMC blocks, one and
  // several kKC blocks (255/256/257), sliver edges in N, and a width
  // that splits across the kernel pool.
  std::vector<std::size_t> ms;
  for (std::size_t m = 1; m <= 17; ++m) ms.push_back(m);
  ms.insert(ms.end(), {31, 64, 82, 97});
  std::size_t checked = 0;
  for_each_case(ms, {1, 7, 8, 9, 384}, {1, 5, 255, 256, 257, 600},
                [&](const GemmCase& g, const GemmOperands& op,
                    const tensor::PackedPanels& pack) {
    if (::testing::Test::HasFatalFailure()) return;  // report one case
    for (const double alpha : kSweepAlphas) {
      for (const double beta : kSweepBetas) {
        const std::vector<double> ref =
            run_on_tier(tiers.front(), false, g, op, pack, alpha, beta);
        for (const std::string& tier : tiers) {
          for (const bool prepacked : {false, true}) {
            ASSERT_TRUE(bitwise_equal(
                run_on_tier(tier, prepacked, g, op, pack, alpha, beta), ref))
                << tier << (prepacked ? " prepacked" : " per-call")
                << " differs from " << tiers.front() << ": m=" << g.m
                << " n=" << g.n << " k=" << g.k << " trans_a=" << g.trans_a
                << " trans_b=" << g.trans_b << " alpha=" << alpha
                << " beta=" << beta;
            ++checked;
          }
        }
      }
    }
  });
  EXPECT_EQ(checked, 21u * 5 * 6 * 4 * 6 * 2 * tiers.size());
}

// FNV-1a over every C buffer (padding included) of a fixed sweep,
// captured from the AVX2-only kernel before the AVX-512 tier was added:
// pins that the tiers agree with the earlier results, not only with
// each other.
constexpr std::uint64_t kPinnedSweepHash = 0xff29c13a56470ab2ULL;

TEST(BlockedGemmTiers, FixedSweepMatchesPinnedHash) {
  const std::vector<std::string> tiers = fma_tiers();
  if (tiers.empty()) GTEST_SKIP() << "this host has no FMA GEMM tier";
  for (const std::string& tier : tiers) {
    for (const bool prepacked : {false, true}) {
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for_each_case({1, 5, 8, 16, 17, 97}, {1, 9, 384}, {1, 257, 600},
                    [&](const GemmCase& g, const GemmOperands& op,
                        const tensor::PackedPanels& pack) {
        for (const double alpha : kSweepAlphas) {
          for (const double beta : kSweepBetas) {
            h = fnv1a(h, run_on_tier(tier, prepacked, g, op, pack, alpha,
                                     beta));
          }
        }
      });
      EXPECT_EQ(h, kPinnedSweepHash)
          << tier << (prepacked ? " prepacked" : " per-call");
    }
  }
}

}  // namespace
}  // namespace geonas
