// Cache-blocked, register-tiled GEMM with runtime micro-kernel dispatch.
// See tensor/gemm_kernel.hpp for the blocking structure, the kernel
// tiers and the bitwise contract between them.
//
// Compiled with -ffp-contract=off (src/tensor/CMakeLists.txt): the
// write-back multiplies by alpha and beta and adds in separate rounding
// steps, and a compiler that fused them into an FMA inside the AVX
// kernels would make those tiers round differently from write_tile.
#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "hpc/parallel_for.hpp"
#include "hpc/thread_pool.hpp"
#include "tensor/blas.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define GEONAS_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace geonas::detail {
namespace {

// How a finished K-block tile ab combines with C. The first K-block
// applies beta (without reading C when beta == 0, so uninitialized
// output storage is fine); later K-blocks accumulate.
enum class WriteMode { kOverwrite, kBlend, kAccumulate };

WriteMode write_mode(double beta, bool first_kblock) {
  if (!first_kblock) return WriteMode::kAccumulate;
  return beta == 0.0 ? WriteMode::kOverwrite : WriteMode::kBlend;
}

// Micro-kernel contract, for an MR x kNR tile whose top-left mr x nr
// corner lies inside C (at c, leading dim ldc):
//   ab(r, j) = an FMA chain from zero over p < kc of
//              a_sliver[p * MR + r] * b_sliver[p * kNR + j]
//   kOverwrite:  c = alpha * ab
//   kBlend:      c = alpha * ab + beta * c
//   kAccumulate: c = c + alpha * ab
// with every write-back product and sum rounded on its own. Slivers are
// packed and zero-padded, so the accumulation is branch-free.
using MicroKernel = void (*)(std::size_t kc, const double* a_sliver,
                             const double* b_sliver, double* c,
                             std::size_t ldc, std::size_t mr, std::size_t nr,
                             double alpha, double beta, WriteMode mode);

// Scalar write-back of an ab tile (row stride kNR) into the mr x nr
// corner of C. The reference the vector write-backs reproduce.
void write_tile(double* c, std::size_t ldc, const double* ab, std::size_t mr,
                std::size_t nr, double alpha, double beta, WriteMode mode) {
  for (std::size_t r = 0; r < mr; ++r) {
    double* row = c + r * ldc;
    const double* ab_row = ab + r * kNR;
    for (std::size_t j = 0; j < nr; ++j) {
      switch (mode) {
        case WriteMode::kOverwrite: row[j] = alpha * ab_row[j]; break;
        case WriteMode::kBlend:
          row[j] = alpha * ab_row[j] + beta * row[j];
          break;
        case WriteMode::kAccumulate: row[j] += alpha * ab_row[j]; break;
      }
    }
  }
}

// Tile height of the portable and AVX2 kernels.
constexpr std::size_t kNarrowMR = 4;

void micro_kernel_portable(std::size_t kc, const double* a_sliver,
                           const double* b_sliver, double* c, std::size_t ldc,
                           std::size_t mr, std::size_t nr, double alpha,
                           double beta, WriteMode mode) {
  double ab[kNarrowMR * kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    for (std::size_t r = 0; r < kNarrowMR; ++r) {
      const double av = a_sliver[r];
      for (std::size_t j = 0; j < kNR; ++j) {
        ab[r * kNR + j] += av * b_sliver[j];
      }
    }
    a_sliver += kNarrowMR;
    b_sliver += kNR;
  }
  write_tile(c, ldc, ab, mr, nr, alpha, beta, mode);
}

#ifdef GEONAS_GEMM_X86_DISPATCH
// The write-back of one 4-wide C row segment, operation for operation
// write_tile's.
__attribute__((target("avx2,fma"))) inline __m256d combine_avx2(
    __m256d ab, const double* c, __m256d alpha, __m256d beta,
    WriteMode mode) {
  const __m256d scaled = _mm256_mul_pd(alpha, ab);
  switch (mode) {
    case WriteMode::kBlend:
      return _mm256_add_pd(scaled, _mm256_mul_pd(beta, _mm256_loadu_pd(c)));
    case WriteMode::kAccumulate:
      return _mm256_add_pd(_mm256_loadu_pd(c), scaled);
    case WriteMode::kOverwrite: break;
  }
  return scaled;
}

// 4x8 tile: 8 YMM accumulators live across the whole K-block, 2 B loads
// + 4 A broadcasts feed 8 FMAs per k step. Full-width tiles are written
// from the registers; tiles at the right edge of C go through
// write_tile.
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(
    std::size_t kc, const double* a_sliver, const double* b_sliver, double* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, double alpha, double beta,
    WriteMode mode) {
  __m256d acc[kNarrowMR][2];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kNarrowMR; ++r) {
    acc[r][0] = _mm256_setzero_pd();
    acc[r][1] = _mm256_setzero_pd();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(b_sliver);
    const __m256d b1 = _mm256_loadu_pd(b_sliver + 4);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kNarrowMR; ++r) {
      const __m256d av = _mm256_set1_pd(a_sliver[r]);
      acc[r][0] = _mm256_fmadd_pd(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_pd(av, b1, acc[r][1]);
    }
    a_sliver += kNarrowMR;
    b_sliver += kNR;
  }
  if (nr < kNR) {
    alignas(32) double ab[kNarrowMR * kNR];  // see micro_kernel_avx512
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kNarrowMR; ++r) {
      _mm256_storeu_pd(ab + r * kNR, acc[r][0]);
      _mm256_storeu_pd(ab + r * kNR + 4, acc[r][1]);
    }
    // write_tile is SSE code: clear the upper YMM halves first, or every
    // SSE instruction in it pays the AVX-SSE transition penalty.
    _mm256_zeroupper();
    write_tile(c, ldc, ab, mr, nr, alpha, beta, mode);
    return;
  }
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vb = _mm256_set1_pd(beta);
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kNarrowMR; ++r) {
    if (r < mr) {
      double* row = c + r * ldc;
      _mm256_storeu_pd(row, combine_avx2(acc[r][0], row, va, vb, mode));
      _mm256_storeu_pd(row + 4,
                       combine_avx2(acc[r][1], row + 4, va, vb, mode));
    }
  }
}

// MRx8 tile: one ZMM accumulator per row, so one B load + MR broadcast
// FMAs per k step (MR = 16 keeps 16 of the 32 ZMM registers busy).
// Full-width tiles are written from the registers, skipping the rows
// past mr; tiles at the right edge of C go through write_tile, which
// measured faster than masked loads and stores on the 5-column input
// gradient GEMM of BM_LSTMTrainStep/16.
template <std::size_t MR>
__attribute__((target("avx512f"))) void micro_kernel_avx512(
    std::size_t kc, const double* a_sliver, const double* b_sliver, double* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, double alpha, double beta,
    WriteMode mode) {
  __m512d acc[MR];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < MR; ++r) acc[r] = _mm512_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m512d bv = _mm512_loadu_pd(b_sliver);
#pragma GCC unroll 16
    for (std::size_t r = 0; r < MR; ++r) {
      acc[r] = _mm512_fmadd_pd(_mm512_set1_pd(a_sliver[r]), bv, acc[r]);
    }
    a_sliver += MR;
    b_sliver += kNR;
  }
  if (nr < kNR) {
    // Line-aligned: the stack offset varies from process to process, and
    // a spill that straddled cache lines made write_tile's loads miss
    // store forwarding in some processes and not in others.
    alignas(64) double ab[MR * kNR];
#pragma GCC unroll 16
    for (std::size_t r = 0; r < MR; ++r) {
      _mm512_storeu_pd(ab + r * kNR, acc[r]);
    }
    _mm256_zeroupper();  // as in micro_kernel_avx2
    write_tile(c, ldc, ab, mr, nr, alpha, beta, mode);
    return;
  }
  const __m512d va = _mm512_set1_pd(alpha);
  const __m512d vb = _mm512_set1_pd(beta);
#pragma GCC unroll 16
  for (std::size_t r = 0; r < MR; ++r) {
    if (r < mr) {
      double* row = c + r * ldc;
      __m512d out = _mm512_mul_pd(va, acc[r]);
      if (mode == WriteMode::kBlend) {
        out = _mm512_add_pd(out, _mm512_mul_pd(vb, _mm512_loadu_pd(row)));
      } else if (mode == WriteMode::kAccumulate) {
        out = _mm512_add_pd(_mm512_loadu_pd(row), out);
      }
      _mm512_storeu_pd(row, out);
    }
  }
}

bool host_has_avx512f() { return __builtin_cpu_supports("avx512f"); }

bool host_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif  // GEONAS_GEMM_X86_DISPATCH

bool always() { return true; }

// A micro-kernel and the tile height its A slivers are packed for.
struct Tile {
  std::size_t mr;
  MicroKernel kernel;
};

// A kernel tier: its tiles, tallest first, and whether this host can
// run it. Every tile of every FMA tier computes each C element with the
// same operations, so tiers and tile heights differ only in speed.
struct Tier {
  const char* name;
  bool (*supported)();
  std::span<const Tile> tiles;
};

constexpr Tile kPortableTiles[] = {{kNarrowMR, micro_kernel_portable}};
#ifdef GEONAS_GEMM_X86_DISPATCH
constexpr Tile kAvx512Tiles[] = {{16, micro_kernel_avx512<16>},
                                 {8, micro_kernel_avx512<8>},
                                 {4, micro_kernel_avx512<4>}};
constexpr Tile kAvx2Tiles[] = {{kNarrowMR, micro_kernel_avx2}};
#endif

// Fastest first: gemm_blocked runs the first tier the host supports.
constexpr Tier kTiers[] = {
#ifdef GEONAS_GEMM_X86_DISPATCH
    {"avx512f", host_has_avx512f, kAvx512Tiles},
    {"avx2-fma", host_has_avx2_fma, kAvx2Tiles},
#endif
    {"portable", always, kPortableTiles},
};

const Tier& select_tier() {
  for (const Tier& tier : kTiers) {
    if (tier.supported()) return tier;
  }
  return kTiers[std::size(kTiers) - 1];
}

const Tier& selected_tier() {
  static const Tier& tier = select_tier();
  return tier;
}

const Tier& host_tier(std::string_view name) {
  for (const Tier& tier : kTiers) {
    if (name == tier.name) {
      if (!tier.supported()) {
        throw std::invalid_argument("gemm tier not supported on this host: " +
                                    std::string(name));
      }
      return tier;
    }
  }
  throw std::invalid_argument("unknown gemm tier: " + std::string(name));
}

// The tallest tile no taller than m, so small M (serving batches) pads
// no more rows than the narrowest tile does; the narrowest otherwise.
const Tile& pick_tile(const Tier& tier, std::size_t m) {
  for (const Tile& tile : tier.tiles) {
    if (tile.mr <= m) return tile;
  }
  return tier.tiles.back();
}

// Every tile height divides 16, so kMC-row blocks split into whole
// slivers of any tile and the packed A block never outgrows its
// kMC x kKC scratch.
static_assert(kMC % 16 == 0);

template <std::size_t MR>
void pack_a_slivers(double* dst, const double* a, std::size_t lda, bool trans,
                    std::size_t i0, std::size_t p0, std::size_t mc,
                    std::size_t kc) {
  for (std::size_t ir = 0; ir < mc; ir += MR) {
    const std::size_t rows = std::min(MR, mc - ir);
    const std::size_t i = i0 + ir;
    if (trans && rows == MR) {
      // op(A) column p of a full sliver is a contiguous row of the
      // stored A.
      const double* src = a + p0 * lda + i;
      for (std::size_t p = 0; p < kc; ++p, src += lda, dst += MR) {
        for (std::size_t r = 0; r < MR; ++r) dst[r] = src[r];
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p, dst += MR) {
      for (std::size_t r = 0; r < rows; ++r) {
        dst[r] = trans ? a[(p0 + p) * lda + i + r]
                       : a[(i + r) * lda + p0 + p];
      }
      for (std::size_t r = rows; r < MR; ++r) dst[r] = 0.0;
    }
  }
}

}  // namespace

// Packs the logical block op(A)(i0:i0+mc, p0:p0+kc) into mr-row
// slivers: sliver ir holds [p][r] = op(A)(i0+ir+r, p0+p), zero-padded
// to mr rows so edge tiles run the same full micro-kernel.
void pack_a(double* dst, const double* a, std::size_t lda, bool trans,
            std::size_t i0, std::size_t p0, std::size_t mc, std::size_t kc,
            std::size_t mr) {
  switch (mr) {
    case 16: pack_a_slivers<16>(dst, a, lda, trans, i0, p0, mc, kc); break;
    case 8: pack_a_slivers<8>(dst, a, lda, trans, i0, p0, mc, kc); break;
    case 4: pack_a_slivers<4>(dst, a, lda, trans, i0, p0, mc, kc); break;
    default:
      throw std::invalid_argument("pack_a: tile height must be 4, 8 or 16");
  }
}

// Packs op(B)(p0:p0+kc, j0:j0+nc) into kNR-column slivers: sliver jr
// holds [p][j] = op(B)(p0+p, j0+jr+j), zero-padded to kNR columns.
void pack_b(double* dst, const double* b, std::size_t ldb, bool trans,
            std::size_t p0, std::size_t j0, std::size_t kc, std::size_t nc) {
  for (std::size_t jr = 0; jr < nc; jr += kNR) {
    const std::size_t cols = std::min(kNR, nc - jr);
    const std::size_t j = j0 + jr;
    if (!trans && cols == kNR) {
      // op(B) row p of a full sliver is a contiguous row of the stored B.
      const double* src = b + p0 * ldb + j;
      for (std::size_t p = 0; p < kc; ++p, src += ldb, dst += kNR) {
        for (std::size_t jj = 0; jj < kNR; ++jj) dst[jj] = src[jj];
      }
      continue;
    }
    for (std::size_t p = 0; p < kc; ++p, dst += kNR) {
      for (std::size_t jj = 0; jj < cols; ++jj) {
        dst[jj] = trans ? b[(j + jj) * ldb + p0 + p]
                        : b[(p0 + p) * ldb + j + jj];
      }
      for (std::size_t jj = cols; jj < kNR; ++jj) dst[jj] = 0.0;
    }
  }
}

// Full-width prepack: every kKC-row block of op(B) packed across the
// whole width n. Identical bytes to the per-call pack_b tiles laid
// end-to-end (see gemm_kernel.hpp for the offset arithmetic).
void pack_b_full(double* dst, const double* b, std::size_t ldb, bool trans,
                 std::size_t k, std::size_t n) {
  const std::size_t n_pad = packed_b_ncols(n);
  for (std::size_t pc = 0; pc < k; pc += kKC) {
    const std::size_t kc = std::min(kKC, k - pc);
    pack_b(dst + pc * n_pad, b, ldb, trans, pc, 0, kc, n);
  }
}

namespace {

// Per-thread pack scratch, sized once (kMC*kKC + kKC*kNC doubles) and
// reused across every gemm on the thread. File-scope so the pool
// warm-up hook can pre-reserve it before a worker's first dispatch.
thread_local std::vector<double> t_a_pack;
thread_local std::vector<double> t_b_pack;

// One task's stripe: rows [i_begin, i_end) of C through the full
// jc/pc/ic blocking. Each stripe packs its own panels into thread-local
// buffers, so stripes are fully independent.
void gemm_stripe(const Tile& tile, std::size_t i_begin, std::size_t i_end,
                 std::size_t n, std::size_t k, double alpha, const double* a,
                 std::size_t lda, bool trans_a, const double* b,
                 std::size_t ldb, bool trans_b, double beta, double* c,
                 std::size_t ldc) {
  std::vector<double>& a_pack = t_a_pack;
  std::vector<double>& b_pack = t_b_pack;
  a_pack.resize(kMC * kKC);
  b_pack.resize(kKC * kNC);
  const std::size_t mr_tile = tile.mr;

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const WriteMode mode = write_mode(beta, pc == 0);
      pack_b(b_pack.data(), b, ldb, trans_b, pc, jc, kc, nc);
      for (std::size_t ic = i_begin; ic < i_end; ic += kMC) {
        const std::size_t mc = std::min(kMC, i_end - ic);
        pack_a(a_pack.data(), a, lda, trans_a, ic, pc, mc, kc, mr_tile);
        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          const std::size_t nr = std::min(kNR, nc - jr);
          const double* b_sliver = b_pack.data() + (jr / kNR) * kNR * kc;
          for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
            tile.kernel(kc, a_pack.data() + ir * kc, b_sliver,
                        c + (ic + ir) * ldc + jc + jr, ldc,
                        std::min(mr_tile, mc - ir), nr, alpha, beta, mode);
          }
        }
      }
    }
  }
}

// gemm_stripe against a pack_b_full panel: no B packing, and when the
// stripe is one kMC block tall with the whole panel L2-resident, no
// jc/ic blocking either. The kKC K-partitioning and per-tile
// accumulation order match gemm_stripe exactly (only the traversal
// order over distinct C tiles differs), so every C element sees the
// same floating-point operations in the same order.
void gemm_stripe_packed(const Tile& tile, std::size_t i_begin,
                        std::size_t i_end, std::size_t n, std::size_t k,
                        double alpha, const double* a, std::size_t lda,
                        bool trans_a, const double* bp, double beta, double* c,
                        std::size_t ldc) {
  std::vector<double>& a_pack = t_a_pack;
  a_pack.resize(kMC * kKC);
  const std::size_t mr_tile = tile.mr;
  const std::size_t n_pad = packed_b_ncols(n);

  if (i_end - i_begin <= kMC && k * n_pad * sizeof(double) <= kPrepackL2Bytes) {
    // Small-M fast path: one A pack per K-block covers the whole stripe.
    const std::size_t mc = i_end - i_begin;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const WriteMode mode = write_mode(beta, pc == 0);
      const double* b_block = bp + pc * n_pad;
      pack_a(a_pack.data(), a, lda, trans_a, i_begin, pc, mc, kc, mr_tile);
      for (std::size_t jr = 0; jr < n; jr += kNR) {
        const std::size_t nr = std::min(kNR, n - jr);
        const double* b_sliver = b_block + (jr / kNR) * kNR * kc;
        for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
          tile.kernel(kc, a_pack.data() + ir * kc, b_sliver,
                      c + (i_begin + ir) * ldc + jr, ldc,
                      std::min(mr_tile, mc - ir), nr, alpha, beta, mode);
        }
      }
    }
    return;
  }

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const WriteMode mode = write_mode(beta, pc == 0);
      const double* b_block = bp + pc * n_pad;
      for (std::size_t ic = i_begin; ic < i_end; ic += kMC) {
        const std::size_t mc = std::min(kMC, i_end - ic);
        pack_a(a_pack.data(), a, lda, trans_a, ic, pc, mc, kc, mr_tile);
        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          const std::size_t nr = std::min(kNR, nc - jr);
          // kNC % kNR == 0, so jc + jr always lands on a sliver start.
          const double* b_sliver = b_block + ((jc + jr) / kNR) * kNR * kc;
          for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
            tile.kernel(kc, a_pack.data() + ir * kc, b_sliver,
                        c + (ic + ir) * ldc + jc + jr, ldc,
                        std::min(mr_tile, mc - ir), nr, alpha, beta, mode);
          }
        }
      }
    }
  }
}

// C = beta * C for the degenerate alpha == 0 / k == 0 cases.
void scale_c(std::size_t m, std::size_t n, double beta, double* c,
             std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    double* row = c + i * ldc;
    if (beta == 0.0) {
      std::fill(row, row + n, 0.0);
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// The flop count both entry points hand parallel_for's threshold.
double gemm_cost(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

void run_gemm(const Tier& tier, std::size_t m, std::size_t n, std::size_t k,
              double alpha, const double* a, std::size_t lda, bool trans_a,
              const double* b, std::size_t ldb, bool trans_b, double beta,
              double* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0 || k == 0) {
    scale_c(m, n, beta, c, ldc);  // degenerate product: C = beta * C
    return;
  }
  const Tile& tile = pick_tile(tier, m);
  hpc::parallel_for(
      0, m, gemm_cost(m, n, k), tile.mr, [&](std::size_t lo, std::size_t hi) {
        gemm_stripe(tile, lo, hi, n, k, alpha, a, lda, trans_a, b, ldb,
                    trans_b, beta, c, ldc);
      });
}

void run_gemm_packed_b(const Tier& tier, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, const double* a,
                       std::size_t lda, bool trans_a, const double* packed_b,
                       double beta, double* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0 || k == 0) {
    scale_c(m, n, beta, c, ldc);
    return;
  }
  // Same cost model, tile and split as run_gemm: a given (m, n, k) lands
  // on identical stripe boundaries. Stripes do not change any element's
  // arithmetic anyway, so packed and unpacked results are bitwise equal
  // at every thread count.
  const Tile& tile = pick_tile(tier, m);
  hpc::parallel_for(
      0, m, gemm_cost(m, n, k), tile.mr, [&](std::size_t lo, std::size_t hi) {
        gemm_stripe_packed(tile, lo, hi, n, k, alpha, a, lda, trans_a,
                           packed_b, beta, c, ldc);
      });
}

// Pre-reserve pack scratch on every pool worker before it claims its
// first task, so the thread_local first-allocation cannot land inside a
// steady-state (alloc-audited) dispatch. Registered from a static
// initializer: pools are created lazily at first over-threshold
// dispatch, which is always after static init completes.
[[maybe_unused]] const bool g_warmup_registered = [] {
  hpc::set_worker_warmup(&reserve_gemm_scratch);
  return true;
}();

}  // namespace

void reserve_gemm_scratch() {
  t_a_pack.resize(kMC * kKC);
  t_b_pack.resize(kKC * kNC);
}

void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, std::size_t lda, bool trans_a,
                  const double* b, std::size_t ldb, bool trans_b, double beta,
                  double* c, std::size_t ldc) {
  run_gemm(selected_tier(), m, n, k, alpha, a, lda, trans_a, b, ldb, trans_b,
           beta, c, ldc);
}

void gemm_blocked_packed_b(std::size_t m, std::size_t n, std::size_t k,
                           double alpha, const double* a, std::size_t lda,
                           bool trans_a, const double* packed_b, double beta,
                           double* c, std::size_t ldc) {
  run_gemm_packed_b(selected_tier(), m, n, k, alpha, a, lda, trans_a,
                    packed_b, beta, c, ldc);
}

std::vector<std::string> gemm_host_tiers() {
  std::vector<std::string> names;
  for (const Tier& tier : kTiers) {
    if (tier.supported()) names.emplace_back(tier.name);
  }
  return names;
}

void gemm_blocked_on_tier(std::string_view tier, std::size_t m, std::size_t n,
                          std::size_t k, double alpha, const double* a,
                          std::size_t lda, bool trans_a, const double* b,
                          std::size_t ldb, bool trans_b, double beta,
                          double* c, std::size_t ldc) {
  run_gemm(host_tier(tier), m, n, k, alpha, a, lda, trans_a, b, ldb, trans_b,
           beta, c, ldc);
}

void gemm_blocked_packed_b_on_tier(std::string_view tier, std::size_t m,
                                   std::size_t n, std::size_t k, double alpha,
                                   const double* a, std::size_t lda,
                                   bool trans_a, const double* packed_b,
                                   double beta, double* c, std::size_t ldc) {
  run_gemm_packed_b(host_tier(tier), m, n, k, alpha, a, lda, trans_a,
                    packed_b, beta, c, ldc);
}

}  // namespace geonas::detail

namespace geonas::tensor {

const char* gemm_kernel_name() noexcept {
  return detail::selected_tier().name;
}

}  // namespace geonas::tensor
