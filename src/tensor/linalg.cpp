#include "tensor/linalg.hpp"

// Compiled with -ffp-contract=off (src/tensor/CMakeLists.txt): every
// rotation rounds its four products and two sums separately, in each
// kernel tier and under -march=native, so no tier and no build fuses
// them into FMAs and the eigenpairs keep the same bits everywhere. The
// deferred order and why it is exact are in tensor/linalg.hpp.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "tensor/blas.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define GEONAS_JACOBI_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace geonas {

namespace {

double offdiag_norm(const Matrix& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i != j) acc += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(acc);
}

/// Rotation (p, q) of a p-run: q and the cosine and sine. Every use
/// applies it to a pair (x, y) as (c x - s y, s x + c y), x from row or
/// column p and y from row or column q.
struct Rotation {
  std::size_t q;
  double c;
  double s;
};

/// The rotations of one p-run within a batch of runs.
struct RunSpan {
  std::size_t p;
  std::size_t count;
};

/// Rows whose deferred column updates are replayed together.
constexpr std::size_t kChainRows = 8;

/// p-runs whose V^T updates are applied in one pass over V^T.
constexpr std::size_t kVtRuns = 16;

// ---- kernels -------------------------------------------------------------
// rotate_rows: the row pass of one rotation on rows p and q of A.
// replay_chains: the deferred column-pass updates of a p-run's rotations
//   on kChainRows rows of A: per row, x = row[p] runs through
//   (row[q], x) <- (s x + c row[q], c x - s row[q]).
// rotate_vt: the row rotations of a batch of p-runs on V^T.

void rotate_rows_portable(double* x, double* y, std::size_t n, double c,
                          double s) {
  for (std::size_t k = 0; k < n; ++k) {
    const double xk = x[k];
    const double yk = y[k];
    x[k] = c * xk - s * yk;
    y[k] = s * xk + c * yk;
  }
}

void replay_chains_portable(double* const* rows, std::size_t /*n*/,
                            std::size_t p, const Rotation* rot,
                            std::size_t count) {
  double x[kChainRows];
  for (std::size_t r = 0; r < kChainRows; ++r) x[r] = rows[r][p];
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t q = rot[i].q;
    const double c = rot[i].c;
    const double s = rot[i].s;
    for (std::size_t r = 0; r < kChainRows; ++r) {
      const double y = rows[r][q];
      rows[r][q] = s * x[r] + c * y;
      x[r] = c * x[r] - s * y;
    }
  }
  for (std::size_t r = 0; r < kChainRows; ++r) rows[r][p] = x[r];
}

constexpr std::size_t kVtBlock = 16;

/// Column block by column block: per run, row p's block is carried
/// through the run's rotations, each of which updates row q's block.
/// Column blocks are independent, so every element sees its rotations
/// in the original order.
void rotate_vt_portable(double* vt, std::size_t n, const RunSpan* runs,
                        std::size_t nruns, const Rotation* rot) {
  for (std::size_t j0 = 0; j0 < n; j0 += kVtBlock) {
    const std::size_t w = std::min(kVtBlock, n - j0);
    const Rotation* r = rot;
    for (std::size_t run = 0; run < nruns; ++run) {
      double* const vt_p = vt + runs[run].p * n + j0;
      double x[kVtBlock];
      for (std::size_t j = 0; j < w; ++j) x[j] = vt_p[j];
      for (std::size_t i = 0; i < runs[run].count; ++i, ++r) {
        double* y = vt + r->q * n + j0;
        const double c = r->c;
        const double s = r->s;
        for (std::size_t j = 0; j < w; ++j) {
          const double yj = y[j];
          y[j] = s * x[j] + c * yj;
          x[j] = c * x[j] - s * yj;
        }
      }
      for (std::size_t j = 0; j < w; ++j) vt_p[j] = x[j];
    }
  }
}

#ifdef GEONAS_JACOBI_X86_DISPATCH

/// Lanes [0, k) of an 8-lane mask.
__attribute__((target("avx512f"))) inline __mmask8 first_lanes(
    std::size_t k) {
  return static_cast<__mmask8>(k >= 8 ? 0xFFu : (1u << k) - 1u);
}

__attribute__((target("avx512f"))) void rotate_rows_avx512(
    double* x, double* y, std::size_t n, double c, double s) {
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  for (std::size_t k = 0; k < n; k += 8) {
    const __mmask8 m = first_lanes(n - k);
    const __m512d xk = _mm512_maskz_loadu_pd(m, x + k);
    const __m512d yk = _mm512_maskz_loadu_pd(m, y + k);
    _mm512_mask_storeu_pd(
        x + k, m, _mm512_sub_pd(_mm512_mul_pd(vc, xk), _mm512_mul_pd(vs, yk)));
    _mm512_mask_storeu_pd(
        y + k, m, _mm512_add_pd(_mm512_mul_pd(vs, xk), _mm512_mul_pd(vc, yk)));
  }
}

// All-lanes masks select the unmasked instructions. The unmasked
// intrinsics pass _mm512_undefined_pd() through, which GCC 12 reports
// as -Wmaybe-uninitialized.
constexpr __mmask8 kAll = 0xFF;

/// [lo[0..4) | hi[0..4)].
__attribute__((target("avx512f"))) inline __m512d load_halves(
    const double* lo, const double* hi) {
  return _mm512_maskz_insertf64x4(
      kAll, _mm512_castpd256_pd512(_mm256_loadu_pd(lo)), _mm256_loadu_pd(hi),
      1);
}

__attribute__((target("avx512f"))) inline void store_halves(double* lo,
                                                            double* hi,
                                                            __m512d v) {
  _mm256_storeu_pd(lo, _mm512_maskz_extractf64x4_pd(kAll, v, 0));
  _mm256_storeu_pd(hi, _mm512_maskz_extractf64x4_pd(kAll, v, 1));
}

/// 4x4 transpose inside each 256-bit half of v[0..4), its own inverse:
/// v[r] = [row r | row r+4] of a 4-column tile becomes
/// v[c] = [column c of rows 0-3 | column c of rows 4-7], and back.
__attribute__((target("avx512f"))) inline void transpose_halves(
    __m512d* v) {
  const __m512i lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  const __m512d t0 = _mm512_maskz_unpacklo_pd(kAll, v[0], v[1]);
  const __m512d t1 = _mm512_maskz_unpackhi_pd(kAll, v[0], v[1]);
  const __m512d t2 = _mm512_maskz_unpacklo_pd(kAll, v[2], v[3]);
  const __m512d t3 = _mm512_maskz_unpackhi_pd(kAll, v[2], v[3]);
  v[0] = _mm512_permutex2var_pd(t0, lo, t2);
  v[1] = _mm512_permutex2var_pd(t1, lo, t3);
  v[2] = _mm512_permutex2var_pd(t0, hi, t2);
  v[3] = _mm512_permutex2var_pd(t1, hi, t3);
}

/// The eight rows are the lanes of one ZMM register: x holds their
/// column-p entries, and each 8x8 tile of the rows is transposed in
/// registers so that one of its columns is one vector.
__attribute__((target("avx512f"))) void replay_chains_avx512(
    double* const* rows, std::size_t n, std::size_t p, const Rotation* rot,
    std::size_t count) {
  if (n < 8) {
    replay_chains_portable(rows, n, p, rot, count);
    return;
  }
  __m512d x = _mm512_setr_pd(rows[0][p], rows[1][p], rows[2][p], rows[3][p],
                             rows[4][p], rows[5][p], rows[6][p], rows[7][p]);
  std::size_t i = 0;
  while (i < count) {
    // Tile columns [j0, j0 + 8). The last tile shifts left to stay in the
    // row; its columns without a rotation pass through unchanged, and x
    // is stored after every tile, so a stale column p in it is harmless.
    const std::size_t j0 = std::min(rot[i].q, n - 8);
    unsigned present = 0;
    double tc[8];
    double ts[8];
    for (; i < count && rot[i].q < j0 + 8; ++i) {
      const std::size_t col = rot[i].q - j0;
      present |= 1u << col;
      tc[col] = rot[i].c;
      ts[col] = rot[i].s;
    }
    __m512d t[8];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      t[r] = load_halves(rows[r] + j0, rows[r + 4] + j0);
      t[r + 4] = load_halves(rows[r] + j0 + 4, rows[r + 4] + j0 + 4);
    }
    transpose_halves(t);
    transpose_halves(t + 4);
#pragma GCC unroll 8
    for (unsigned col = 0; col < 8; ++col) {
      if ((present >> col & 1u) == 0) continue;
      const __m512d vc = _mm512_set1_pd(tc[col]);
      const __m512d vs = _mm512_set1_pd(ts[col]);
      const __m512d y = t[col];
      t[col] = _mm512_add_pd(_mm512_mul_pd(vs, x), _mm512_mul_pd(vc, y));
      x = _mm512_sub_pd(_mm512_mul_pd(vc, x), _mm512_mul_pd(vs, y));
    }
    transpose_halves(t);
    transpose_halves(t + 4);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      store_halves(rows[r] + j0, rows[r + 4] + j0, t[r]);
      store_halves(rows[r] + j0 + 4, rows[r + 4] + j0 + 4, t[r + 4]);
    }
  }
  alignas(64) double xs[8];
  _mm512_store_pd(xs, x);
  for (std::size_t r = 0; r < kChainRows; ++r) rows[r][p] = xs[r];
}

/// 64-column blocks: row p's block lives in eight ZMM registers, and
/// each rotation streams one block of row q.
__attribute__((target("avx512f"))) void rotate_vt_avx512(
    double* vt, std::size_t n, const RunSpan* runs, std::size_t nruns,
    const Rotation* rot) {
  constexpr std::size_t kVecs = 8;
  for (std::size_t j0 = 0; j0 < n; j0 += 8 * kVecs) {
    __mmask8 m[kVecs];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kVecs; ++v) {
      const std::size_t j = j0 + 8 * v;
      m[v] = j < n ? first_lanes(n - j) : __mmask8{0};
    }
    const Rotation* r = rot;
    for (std::size_t run = 0; run < nruns; ++run) {
      double* const vt_p = vt + runs[run].p * n + j0;
      __m512d x[kVecs];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v) {
        x[v] = _mm512_maskz_loadu_pd(m[v], vt_p + 8 * v);
      }
      for (std::size_t i = 0; i < runs[run].count; ++i, ++r) {
        double* y = vt + r->q * n + j0;
        const __m512d vc = _mm512_set1_pd(r->c);
        const __m512d vs = _mm512_set1_pd(r->s);
#pragma GCC unroll 8
        for (std::size_t v = 0; v < kVecs; ++v) {
          const __m512d yv = _mm512_maskz_loadu_pd(m[v], y + 8 * v);
          _mm512_mask_storeu_pd(
              y + 8 * v, m[v],
              _mm512_add_pd(_mm512_mul_pd(vs, x[v]), _mm512_mul_pd(vc, yv)));
          x[v] =
              _mm512_sub_pd(_mm512_mul_pd(vc, x[v]), _mm512_mul_pd(vs, yv));
        }
      }
#pragma GCC unroll 8
      for (std::size_t v = 0; v < kVecs; ++v) {
        _mm512_mask_storeu_pd(vt_p + 8 * v, m[v], x[v]);
      }
    }
  }
}

bool host_has_avx512f() { return __builtin_cpu_supports("avx512f"); }

#endif  // GEONAS_JACOBI_X86_DISPATCH

bool always() { return true; }

/// A kernel tier. Each applies the same operations to each element in
/// the same order, so tiers differ only in speed.
struct JacobiTier {
  const char* name;
  bool (*supported)();
  void (*rotate_rows)(double* x, double* y, std::size_t n, double c,
                      double s);
  void (*replay_chains)(double* const* rows, std::size_t n, std::size_t p,
                        const Rotation* rot, std::size_t count);
  void (*rotate_vt)(double* vt, std::size_t n, const RunSpan* runs,
                    std::size_t nruns, const Rotation* rot);
};

// Fastest first: eigen_symmetric runs the first tier the host supports.
constexpr JacobiTier kTiers[] = {
#ifdef GEONAS_JACOBI_X86_DISPATCH
    {"avx512f", host_has_avx512f, rotate_rows_avx512, replay_chains_avx512,
     rotate_vt_avx512},
#endif
    {"portable", always, rotate_rows_portable, replay_chains_portable,
     rotate_vt_portable},
};

const JacobiTier& selected_tier() {
  static const JacobiTier& tier = *std::find_if(
      std::begin(kTiers), std::end(kTiers),
      [](const JacobiTier& t) { return t.supported(); });
  return tier;
}

/// The rotation of plane (p, q) that zeroes a_pq, with the stable angle
/// computation of Golub & Van Loan 8.4.
Rotation jacobi_rotation(std::size_t q, double apq, double app, double aqq) {
  const double theta = (aqq - app) / (2.0 * apq);
  const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                   (std::abs(theta) + std::sqrt(theta * theta + 1.0));
  const double c = 1.0 / std::sqrt(t * t + 1.0);
  return {q, c, t * c};
}

/// Scratch of one solve, all O(n).
struct JacobiScratch {
  // Rotations of the p-runs whose V^T update is still pending.
  std::vector<Rotation> rot;
  std::vector<RunSpan> runs;
  // group_done[g]: rotations recorded when group g of the p-run ended.
  std::vector<std::size_t> group_done;
  std::vector<double> dummy_row;  // pads partial chain blocks
};

/// The p-run of one sweep on A: rotations (p, q), q = p+1 .. n-1, in
/// order. Appends them to scratch.rot and the run to scratch.runs; their
/// V^T updates are left to rotate_vt.
void run_p(const JacobiTier& kern, double* ad, std::size_t n, std::size_t p,
           JacobiScratch& scratch) {
  std::vector<Rotation>& rot = scratch.rot;
  const std::size_t first = rot.size();
  const auto recorded = [&] { return rot.size() - first; };
  scratch.group_done.clear();
  double* const row_p = ad + p * n;
  Rotation next{n, 0.0, 0.0};  // precomputed rotation (p, next.q)
  double* rows[kChainRows];
  const auto gather_rows = [&](std::size_t k0, std::size_t end) {
    for (std::size_t r = 0; r < kChainRows; ++r) {
      rows[r] = k0 + r < end ? ad + (k0 + r) * n : scratch.dummy_row.data();
    }
  };

  for (std::size_t g0 = p + 1; g0 < n; g0 += kChainRows) {
    const std::size_t g1 = std::min(g0 + kChainRows, n);
    // Catch the group up on the run so far.
    if (recorded() > 0) {
      gather_rows(g0, g1);
      kern.replay_chains(rows, n, p, rot.data() + first, recorded());
    }
    for (std::size_t q = g0; q < g1; ++q) {
      const double apq = row_p[q];
      if (std::abs(apq) <= 1e-300) continue;
      const Rotation r = next.q == q ? next
                                     : jacobi_rotation(q, apq, row_p[p],
                                                       ad[q * n + q]);
      const double c = r.c;
      const double s = r.s;
      // Column pass on the rows kept current: p and the group.
      const auto column_update = [&](double* row) {
        const double akp = row[p];
        const double akq = row[q];
        row[p] = c * akp - s * akq;
        row[q] = s * akp + c * akq;
      };
      column_update(row_p);
      for (std::size_t k = g0; k < g1; ++k) column_update(ad + k * n);
      // Rotation (p, q + 1) reads a_pp and a_p,q+1 as this row pass
      // leaves them, and a_q+1,q+1, which nothing before it changes:
      // computing it here overlaps its divides and square roots with the
      // row pass.
      next.q = n;
      if (q + 1 < n) {
        const double* row_q = ad + q * n;
        const double next_apq = c * row_p[q + 1] - s * row_q[q + 1];
        if (std::abs(next_apq) > 1e-300) {
          next = jacobi_rotation(q + 1, next_apq, c * row_p[p] - s * row_q[p],
                                 ad[(q + 1) * n + q + 1]);
        }
      }
      kern.rotate_rows(row_p, ad + q * n, n, c, s);
      rot.push_back(r);
    }
    scratch.group_done.push_back(recorded());
  }
  const std::size_t count = recorded();
  if (count == 0) return;
  scratch.runs.push_back({p, count});

  // Flush: rows above p replay the whole run, group rows the rotations
  // after their group.
  for (std::size_t k0 = 0; k0 < p; k0 += kChainRows) {
    gather_rows(k0, p);
    kern.replay_chains(rows, n, p, rot.data() + first, count);
  }
  std::size_t group = 0;
  for (std::size_t g0 = p + 1; g0 < n; g0 += kChainRows, ++group) {
    const std::size_t done = scratch.group_done[group];
    if (done == count) continue;
    gather_rows(g0, std::min(g0 + kChainRows, n));
    kern.replay_chains(rows, n, p, rot.data() + first + done, count - done);
  }
}

EigenResult solve(const JacobiTier& kern, const Matrix& input, double tol,
                  int max_sweeps) {
  if (input.rows() != input.cols()) {
    throw std::invalid_argument("eigen_symmetric: matrix must be square");
  }
  const std::size_t n = input.rows();
  Matrix a = input;
  // Eigenvectors accumulate transposed: row i of vt is column i of V, so
  // each rotation updates two contiguous rows instead of two strided
  // columns (same arithmetic, same bits).
  Matrix vt = Matrix::identity(n);
  double* const ad = a.flat().data();
  double* const vd = vt.flat().data();
  const double scale = std::max(a.frobenius_norm(), 1e-300);

  JacobiScratch scratch;
  scratch.rot.reserve(kVtRuns * n);
  scratch.runs.reserve(kVtRuns);
  scratch.group_done.reserve(n / kChainRows + 1);
  scratch.dummy_row.assign(n, 0.0);

  int sweep = 0;
  for (; sweep < max_sweeps; ++sweep) {
    if (offdiag_norm(a) <= tol * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      run_p(kern, ad, n, p, scratch);
      if (scratch.runs.size() == kVtRuns || p + 2 == n) {
        kern.rotate_vt(vd, n, scratch.runs.data(), scratch.runs.size(),
                       scratch.rot.data());
        scratch.runs.clear();
        scratch.rot.clear();
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

}  // namespace

EigenResult eigen_symmetric(const Matrix& input, double tol, int max_sweeps) {
  return solve(selected_tier(), input, tol, max_sweeps);
}

namespace detail {

std::vector<std::string> jacobi_host_tiers() {
  std::vector<std::string> names;
  for (const JacobiTier& tier : kTiers) {
    if (tier.supported()) names.emplace_back(tier.name);
  }
  return names;
}

EigenResult eigen_symmetric_on_tier(std::string_view tier, const Matrix& a,
                                    double tol, int max_sweeps) {
  for (const JacobiTier& t : kTiers) {
    if (tier == t.name && t.supported()) return solve(t, a, tol, max_sweeps);
  }
  throw std::invalid_argument("eigen_symmetric_on_tier: tier '" +
                              std::string(tier) +
                              "' is unknown or not supported on this host");
}

}  // namespace detail

Matrix cholesky(const Matrix& a, double jitter) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0) {
      throw std::domain_error("cholesky: matrix is not positive definite");
    }
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
  }
  return l;
}

Matrix cholesky_solve(const Matrix& l, const Matrix& b) {
  const std::size_t n = l.rows();
  if (b.rows() != n) {
    throw std::invalid_argument("cholesky_solve: rhs row count mismatch");
  }
  Matrix x = b;
  // Forward substitution: L y = b.
  for (std::size_t c = 0; c < x.cols(); ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = x(i, c);
      for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * x(k, c);
      x(i, c) = acc / l(i, i);
    }
    // Back substitution: L^T x = y.
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = x(ii, c);
      for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x(k, c);
      x(ii, c) = acc / l(ii, ii);
    }
  }
  return x;
}

Matrix solve_spd(const Matrix& a, const Matrix& b, double jitter) {
  return cholesky_solve(cholesky(a, jitter), b);
}

Matrix solve_normal_equations(const Matrix& x, const Matrix& y,
                              double lambda) {
  Matrix xtx = matmul_at_b(x, x);
  for (std::size_t i = 0; i < xtx.rows(); ++i) xtx(i, i) += lambda;
  const Matrix xty = matmul_at_b(x, y);
  // Tiny jitter guards against exactly singular design matrices from
  // degenerate synthetic workloads.
  return solve_spd(xtx, xty, lambda > 0.0 ? 0.0 : 1e-10);
}

}  // namespace geonas
