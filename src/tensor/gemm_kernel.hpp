// Internal blocked-GEMM kernel API shared by blas.cpp and the kernel
// implementation. Public callers use geonas::gemm / geonas::gemm_raw
// from tensor/blas.hpp; this header exists so the blocking parameters
// and the low-level entry point are visible to tests and benchmarks.
//
// Structure (BLIS-style three-level blocking):
//   for jc over N in steps of kNC:            L3-resident B panel
//     for pc over K in steps of kKC:          packed once per (jc, pc)
//       pack B(pc:pc+kc, jc:jc+nc) into kNR-column slivers
//       for ic over M in steps of kMC:        L2-resident A block
//         pack A(ic:ic+mc, pc:pc+kc) into MR-row slivers
//         for jr, ir over the block: MR x kNR register micro-kernel
//
// Kernel tiers. The micro-kernel keeps an MR x kNR accumulator tile in
// registers for a whole K-block and then writes it into C. One tier is
// selected once at runtime, the first the host supports:
//
//   tier       tiles (MR x kNR)  accumulators         write-back
//   avx512f    16x8, 8x8, 4x8    MR ZMM, one per row  registers (*)
//   avx2-fma   4x8               8 YMM                registers (*)
//   portable   4x8               autovectorized       scalar
//   (*) scalar for the tiles at C's right edge (fewer than kNR columns)
//
// The tile height MR belongs to the kernel, and each call picks it from
// M: the tallest tile no taller than M (16 rows for M >= 16, 8 for
// 8 <= M < 16, else 4), so small serving batches pad no more rows than
// the 4-row tile does. MR sets the A packing, the stripe loops and the
// parallel_for grain. kNR = 8 in every tier, so packed B panels are the
// same bytes whichever tier consumes them.
//
// Bitwise contract. Every FMA tier (avx512f, avx2-fma) produces the
// same bits for every C element, whatever its tile height or stripe:
//   - each element of a K-block is one FMA chain from zero over
//     p = 0..kc-1, in order;
//   - K-blocks are kKC wide and combined in ascending order;
//   - the write-back (c = alpha*ab, alpha*ab + beta*c, or c + alpha*ab)
//     rounds each product and sum separately; this file is compiled
//     with -ffp-contract=off so no compiler fuses them.
// The portable tier rounds each multiply-add separately and so differs
// from the FMA tiers in the last bits. Packing reads through the
// (lda, transposed?) source view, so the same kernel serves A*B, A^T*B
// and A*B^T without materialized transposes. The M dimension is split
// across geonas::hpc::parallel_for above its flops threshold; every C
// element is written by exactly one task and its arithmetic does not
// depend on the split, so results are bitwise reproducible across
// thread counts.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace geonas::detail {

// Register tile width, shared by every tier (the tile height MR is a
// property of the selected kernel; see the tier table above).
inline constexpr std::size_t kNR = 8;
// Cache blocking: the packed A block (kMC x kKC doubles = 192 KiB) and
// the in-flight B slivers fit in a typical 512 KiB-1 MiB L2; the packed
// B panel (kKC x kNC = 2 MiB) lives in L3. kMC is a multiple of every
// tile height, so the A block never outgrows its scratch.
inline constexpr std::size_t kMC = 96;
inline constexpr std::size_t kKC = 256;
inline constexpr std::size_t kNC = 1024;

// Small-M prepacked fast path: when a stripe covers at most kMC rows
// AND the whole prepacked B (k x n_pad doubles) fits in this budget,
// the jc/ic blocking loops are dropped — B is L2-resident, so there is
// nothing left to block for. Sized for a conservative 512 KiB L2 with
// half left for the A slivers and C tiles.
inline constexpr std::size_t kPrepackL2Bytes = 256 * 1024;

/// n rounded up to a whole number of kNR-column slivers.
constexpr std::size_t packed_b_ncols(std::size_t n) {
  return (n + kNR - 1) / kNR * kNR;
}

/// Doubles of storage for a full-width prepacked B of shape k x n:
/// every kKC-row block holds kc * packed_b_ncols(n) doubles and the
/// blocks sum to k rows.
constexpr std::size_t packed_b_doubles(std::size_t k, std::size_t n) {
  return k * packed_b_ncols(n);
}

/// C (m x n, leading dim ldc) = alpha * op(A) * op(B) + beta * C.
/// op(A) is m x k; when trans_a, A is stored k x m with leading
/// dimension lda and op(A)(i,p) = a[p * lda + i] (same convention for
/// B). C must not overlap A or B (the Matrix-level geonas::gemm wrapper
/// handles aliasing; raw callers must guarantee it).
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, std::size_t lda, bool trans_a,
                  const double* b, std::size_t ldb, bool trans_b, double beta,
                  double* c, std::size_t ldc);

/// Packs the logical block op(A)(i0:i0+mc, p0:p0+kc) into mr-row
/// slivers (mr = 4, 8 or 16): sliver ir holds
/// [p][r] = op(A)(i0+ir+r, p0+p), zero-padded to mr rows. dst needs mc
/// rounded up to mr, times kc doubles.
void pack_a(double* dst, const double* a, std::size_t lda, bool trans,
            std::size_t i0, std::size_t p0, std::size_t mc, std::size_t kc,
            std::size_t mr);

/// Packs op(B)(p0:p0+kc, j0:j0+nc) into kNR-column slivers: sliver jr
/// holds [p][j] = op(B)(p0+p, j0+jr+j), zero-padded to kNR columns.
/// dst needs kc * packed_b_ncols(nc) doubles.
void pack_b(double* dst, const double* b, std::size_t ldb, bool trans,
            std::size_t p0, std::size_t j0, std::size_t kc, std::size_t nc);

/// Packs ALL of op(B) (k x n) into the full-width panel layout consumed
/// by gemm_blocked_packed_b: for each kKC-row block pc (kc rows), the
/// complete row of kNR-column slivers across n. Block pc starts at
/// doubles-offset pc * packed_b_ncols(n); sliver s within it at
/// s * kNR * kc. Byte-for-byte the concatenation of what the per-call
/// path's pack_b produces for every (pc, jc) tile (kNC is a multiple of
/// kNR, so jc boundaries always fall on sliver boundaries). dst needs
/// packed_b_doubles(k, n) doubles.
void pack_b_full(double* dst, const double* b, std::size_t ldb, bool trans,
                 std::size_t k, std::size_t n);

/// gemm_blocked with B already packed by pack_b_full. Skips all per-call
/// B packing, and for small M (stripe <= kMC rows) with the whole packed
/// B under kPrepackL2Bytes also skips the jc/ic blocking loops. The
/// kKC K-partitioning, micro-kernel accumulation order and parallel_for
/// M-split are identical to gemm_blocked, so results are bitwise equal
/// to the unpacked path at every thread count.
void gemm_blocked_packed_b(std::size_t m, std::size_t n, std::size_t k,
                           double alpha, const double* a, std::size_t lda,
                           bool trans_a, const double* packed_b, double beta,
                           double* c, std::size_t ldc);

/// Names of the kernel tiers this host can run, fastest first; the
/// first is the one gemm_blocked runs ("avx512f", "avx2-fma",
/// "portable").
std::vector<std::string> gemm_host_tiers();

/// Test seam: gemm_blocked and gemm_blocked_packed_b on the named tier
/// instead of the selected one, so tests can compare tiers on one host.
/// Throws std::invalid_argument for an unknown tier or one this host
/// cannot run.
void gemm_blocked_on_tier(std::string_view tier, std::size_t m, std::size_t n,
                          std::size_t k, double alpha, const double* a,
                          std::size_t lda, bool trans_a, const double* b,
                          std::size_t ldb, bool trans_b, double beta,
                          double* c, std::size_t ldc);
void gemm_blocked_packed_b_on_tier(std::string_view tier, std::size_t m,
                                   std::size_t n, std::size_t k, double alpha,
                                   const double* a, std::size_t lda,
                                   bool trans_a, const double* packed_b,
                                   double beta, double* c, std::size_t ldc);

/// Resizes the calling thread's pack scratch buffers to their steady-state
/// capacity (kMC*kKC + kKC*kNC doubles). Registered as the hpc worker
/// warm-up hook so pool workers never first-allocate inside an audited
/// dispatch; also callable directly from tests.
void reserve_gemm_scratch();

}  // namespace geonas::detail
