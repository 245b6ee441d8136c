// Synthetic NOAA-OI-like weekly sea-surface-temperature generator.
//
// Substitute for the proprietary-download NOAA OI SST V2 record (see
// DESIGN.md §1). The generated field is a deterministic function of
// (lat, lon, week, seed) composed of:
//   * a latitudinal climatology (warm equator, cold poles),
//   * an annual + semi-annual seasonal cycle with hemisphere-antisymmetric
//     amplitude (the paper's "strong periodic structure"),
//   * an ENSO-like quasi-periodic mode localized in the eastern equatorial
//     Pacific (the Table I assessment region),
//   * a slow warming trend,
//   * mesoscale eddies: a fixed bank of traveling waves, stronger in
//     mid-latitudes, giving the increasingly stochastic higher POD modes
//     the paper describes ("mode 4 and beyond"),
//   * hash-based white measurement noise.
// The deterministic components are low-rank, so ~5 POD modes capture
// ~90 % of the centered variance — matching the paper's Nr = 5 setting.
//
// Purity and horizon. The truth record is a pure function of
// (lat, lon, week, seed): the chaotic climate indices and the truth eddy
// bank (waves plus AR(1) amplitude series) are built once, in the
// constructor, out to a fixed horizon, so no call can change what any
// other call returns. Weeks (and week times) in [0, kRecordWeeks) are
// served; a later one throws std::out_of_range naming the week and the
// limit.
//
// Evaluation. Each term splits into a per-cell part (climatology,
// seasonal amplitude and lag, mode patterns, noise cell key) and a
// per-week part (climate indices, trend, noise week key), and one compose
// step combines them in a fixed operation order. The eddy bank is a
// product: with A_m = 2pi(k_lat u + k_lon v) + phi_m per cell and
// B_m = omega_m t per week, sin(A_m - B_m) = sin A_m cos B_m -
// cos A_m sin B_m, so the eddy field of a batch is E W with
//   E (cells x 2M): row i = (env_i sin A_m, -env_i cos A_m) per wave m,
//   W (2M x weeks): column c = (a_m(t) amp_m cos B_m,
//                               a_m(t) amp_m sin B_m) per wave m,
// computed by one tensor GEMM straight into the output, which compose
// then overwrites with the full temperature (cell-parallel). value(),
// field(), snapshots(), values() and the eddy() / eddies() of every
// realization run this one kernel; value() and eddy() are its one-cell
// case. The GEMM's bitwise contract (tensor/gemm_kernel.hpp: an element's
// bits do not depend on M, N, tile height or thread count) makes every
// batch bitwise identical to value() cell by cell, at every kernel thread
// count. Bits are those of the host's GEMM tier: the FMA tiers (avx512f,
// avx2-fma) agree with each other; the portable tier differs in the last
// bits.
//
// Record version. kSSTRecordVersion names the record's bits. Version 1
// summed one libm sin per wave of a phase rounded as omega t - (...);
// version 2 is the E W product above (at most 1.1e-13 deg C from
// version 1 over the quick-scale record).
// Anything that stores or compares records across processes should carry
// the version.
//
// Thread safety. value(), field(), snapshots(), values() and the
// truth-realization components only read after construction and may be
// called concurrently. eddy() and eddies() with a seed other than
// options().seed (the comparator surrogates' own realizations) lazily
// build and extend that realization's bank; those calls are
// single-threaded.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/grid.hpp"
#include "data/landmask.hpp"
#include "tensor/matrix.hpp"

namespace geonas::data {

/// Mean tropical year in weeks; the seasonal cycle period.
inline constexpr double kWeeksPerYear = 52.1775;

/// Number of weeks the truth record spans: week times in
/// [0, kRecordWeeks) are served (the paper's record is 1,914 weeks).
inline constexpr std::size_t kRecordWeeks = 2998;

/// Version of the record's bits (see "Record version" above).
inline constexpr int kSSTRecordVersion = 2;

struct SSTOptions {
  std::uint64_t seed = 2020;
  double seasonal_amplitude = 6.5;   // deg C at high latitude
  double semiannual_amplitude = 0.9;
  double enso_amplitude = 0.7;       // deg C at pattern center
  /// Lorenz-63 time units per week for the chaotic climate indices; sets
  /// the predictability horizon (Lyapunov time ~ 1.1/chaos_rate weeks).
  double chaos_rate = 0.02;
  double enso_envelope_growth = 1.2e-4;  // amplitude growth per week
  double tele_amplitude = 1.0;       // teleconnection mode, deg C at center
  double trend_per_decade = 0.13;    // deg C per decade at the equator
  /// Eddy-amplitude AR(1) weekly autocorrelation (1 = frozen amplitudes).
  double eddy_ar1 = 0.93;
  double eddy_modulation = 0.55;     // relative amplitude-modulation depth
  double eddy_amplitude = 0.85;      // total RMS of the eddy field
  double noise_sigma = 0.12;         // white measurement noise
  int eddy_waves = 48;               // traveling waves in the eddy bank
};

class SyntheticSST {
 public:
  explicit SyntheticSST(SSTOptions options = SSTOptions{});

  [[nodiscard]] const SSTOptions& options() const noexcept { return opts_; }

  /// Temperature at an exact location and snapshot week (deg C).
  [[nodiscard]] double value(double lat, double lon, std::size_t week) const;

  /// Full-grid field at `week`, row-major [nlat x nlon] (land cells get
  /// ordinary values; apply a LandMask to discard them).
  [[nodiscard]] std::vector<double> field(const Grid& grid,
                                          std::size_t week) const;

  /// Ocean-flattened snapshot matrix S in R^{Nh x count} for weeks
  /// [week0, week0 + count) — the paper's eq. (1) layout. Equal, bit for
  /// bit, to mask.flatten(field(grid, w)) column by column.
  [[nodiscard]] Matrix snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const;

  /// Temperatures at `points` for weeks [week0, week0 + count): row i,
  /// column c equals value(points[i].lat, points[i].lon, week0 + c) bit
  /// for bit. The one kernel behind value(), field() and snapshots().
  [[nodiscard]] Matrix values(std::span<const LatLon> points,
                              std::size_t week0, std::size_t count) const;

  // --- individual components, exposed so the CESM/HYCOM comparator
  // --- surrogates can recompose the field with controlled errors ---

  /// Time-mean zonal climatology.
  [[nodiscard]] double climatology(double lat) const noexcept;
  /// Annual + semi-annual cycle. The seasonal phase and amplitude vary
  /// with longitude (continental vs maritime response), so the periodic
  /// content spans several POD modes — as it does in the observed field.
  /// `phase_shift_weeks` lets comparators model phase error.
  [[nodiscard]] double seasonal(double lat, double lon, double week_time,
                                double phase_shift_weeks = 0.0) const noexcept;
  /// Secular warming trend.
  [[nodiscard]] double trend(double lat, double week_time) const noexcept;
  /// ENSO index (dimensionless, O(1)): the x-component of a slowed
  /// Lorenz-63 system — deterministic chaos that is short-term predictable
  /// by nonlinear models (the LSTM) but defeats finite-tap linear AR
  /// prediction, with an amplitude envelope that strengthens through the
  /// test decades (a post-training regime change that additionally defeats
  /// tree regressors). Negative times clamp to 0; times at or past
  /// kRecordWeeks throw std::out_of_range.
  [[nodiscard]] double enso_index(double week_time) const;
  /// A second chaotic climate mode (the Lorenz y-component, offset in
  /// time) loading on a mid-latitude North-Pacific pattern.
  [[nodiscard]] double tele_index(double week_time) const;
  [[nodiscard]] double tele_pattern(double lat, double lon) const noexcept;
  /// ENSO spatial loading (1 at pattern center, ~0 elsewhere).
  [[nodiscard]] double enso_pattern(double lat, double lon) const noexcept;
  /// Mesoscale eddy field for an alternative seed (comparators draw their
  /// own realizations); pass options().seed for the truth realization.
  /// Non-truth seeds build their bank lazily (not thread-safe).
  [[nodiscard]] double eddy(double lat, double lon, double week_time,
                            std::uint64_t realization_seed) const;
  /// Batched eddy(): row i, column c equals eddy(points[i].lat,
  /// points[i].lon, week0 + c, realization_seed) bit for bit. Same thread
  /// safety as eddy().
  [[nodiscard]] Matrix eddies(std::span<const LatLon> points,
                              std::size_t week0, std::size_t count,
                              std::uint64_t realization_seed) const;

 private:
  struct Wave {
    double amp, klat, klon, omega, phase;
    std::uint64_t amp_seed;  // stream for the AR(1) amplitude modulation
  };
  struct WaveBank {
    std::vector<Wave> waves;
    // Weekly AR(1) amplitude factors, one series per wave.
    std::vector<std::vector<double>> amp_series;
  };
  struct CellTerms;  // per-cell parts of the field (sst.cpp)
  struct WeekTerms;  // per-week parts of the field (sst.cpp)

  [[nodiscard]] WaveBank make_bank(std::uint64_t realization_seed) const;
  /// Grows every amplitude series of `bank` to at least `weeks` entries.
  void extend_amp_series(WaveBank& bank, std::size_t weeks) const;
  /// The bank of `realization_seed`: the truth bank, or a comparator bank
  /// built and grown here to at least `weeks` amplitude samples.
  [[nodiscard]] const WaveBank& waves_for(std::uint64_t realization_seed,
                                          std::size_t weeks) const;
  /// out[i * times.size() + c] = eddy(points[i], times[c], seed), E W as
  /// one GEMM (see "Evaluation" above). `times` ascend.
  void eddy_product(std::uint64_t realization_seed,
                    std::span<const LatLon> points,
                    std::span<const double> times, double* out) const;

  [[nodiscard]] CellTerms cell_terms(double lat, double lon) const;
  [[nodiscard]] double compose(const CellTerms& cell, const WeekTerms& week,
                               double eddy) const noexcept;

  SSTOptions opts_;
  // Truth realization, built in the constructor and read-only afterwards.
  std::vector<double> enso_series_;  // weekly samples, standardized
  std::vector<double> tele_series_;
  WaveBank truth_bank_;
  // Comparator realizations, built on first use (single-threaded).
  mutable std::vector<std::pair<std::uint64_t, WaveBank>> wave_cache_;
};

}  // namespace geonas::data
