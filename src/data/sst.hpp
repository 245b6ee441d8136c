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
// seasonal amplitude and lag, mode patterns, eddy envelope, noise cell
// key) and a per-week part (climate indices, trend, eddy amplitudes and
// wave phases), and one compose step combines them in a fixed operation
// order. value() composes one cell; field() and snapshots() compute the
// cell terms once per call (snapshots(): ocean cells only) and split the
// weeks across the kernel pool (hpc::parallel_for). Results are bitwise
// identical at every kernel thread count and to value() cell by cell.
//
// Thread safety. value(), field(), snapshots() and the truth-realization
// components only read after construction and may be called
// concurrently. eddy() with a seed other than options().seed (the
// comparator surrogates' own realizations) lazily builds and extends that
// realization's bank; those calls are single-threaded.
#pragma once

#include <cstdint>
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
  /// Hash-based white noise for a given cell/week (truth realization).
  [[nodiscard]] double noise(double lat, double lon, std::size_t week) const;

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
  /// Per-wave week terms at `week_time`: out[2m] = a_m(t) * amp_m and
  /// out[2m + 1] = omega_m * t (2 doubles per wave).
  static void wave_terms(const WaveBank& bank, double week_time,
                         double* out);
  /// Sum over the bank's waves at phase coordinates (u, v).
  [[nodiscard]] static double wave_sum(const WaveBank& bank,
                                       const double* terms, double u,
                                       double v) noexcept;

  [[nodiscard]] CellTerms cell_terms(double lat, double lon) const;
  /// The terms of `week`; its wave terms go to `waves` (2 per wave),
  /// which must outlive the result.
  [[nodiscard]] WeekTerms week_terms(std::size_t week, double* waves) const;
  [[nodiscard]] double compose(const CellTerms& cell,
                               const WeekTerms& week) const noexcept;
  /// out[i * count + c] = compose(cells[i], week_terms(week0 + c, ...)):
  /// the batched kernel behind field() and snapshots(), week-parallel.
  void generate(const std::vector<CellTerms>& cells, std::size_t week0,
                std::size_t count, double* out) const;

  SSTOptions opts_;
  // Truth realization, built in the constructor and read-only afterwards.
  std::vector<double> enso_series_;  // weekly samples, standardized
  std::vector<double> tele_series_;
  WaveBank truth_bank_;
  // Comparator realizations, built on first use (single-threaded).
  mutable std::vector<std::pair<std::uint64_t, WaveBank>> wave_cache_;
};

}  // namespace geonas::data
