#include "data/sst.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "data/hash_normal.hpp"
#include "hpc/parallel_for.hpp"
#include "tensor/blas.hpp"
#include "tensor/random.hpp"

namespace geonas::data {

namespace {
constexpr double kDeg2Rad = std::numbers::pi / 180.0;

/// Samples in the chaotic-index and truth eddy-amplitude series; reads
/// reach week + 1. The Lorenz series are standardized over exactly this
/// many samples, so changing it changes every week of the record.
constexpr std::size_t kSeriesWeeks = kRecordWeeks + 2;

/// Index of the record week holding `t` (already clamped to t >= 0);
/// throws past the horizon.
std::size_t record_week(double t, const char* who) {
  if (!(t < static_cast<double>(kRecordWeeks))) {
    std::ostringstream msg;
    msg << "SyntheticSST::" << who << ": week " << t
        << " is past the record horizon (weeks must be < " << kRecordWeeks
        << ")";
    throw std::out_of_range(msg.str());
  }
  return static_cast<std::size_t>(t);
}

/// Week-invariant part of the seasonal cycle at one cell.
struct SeasonalCell {
  double amp;   // annual amplitude (hemisphere sign included)
  double lag;   // longitude-dependent seasonal lag, weeks
  double semi;  // semi-annual amplitude
};

SeasonalCell seasonal_cell(const SSTOptions& opts, double lat, double lon) {
  const double lat_rad = lat * kDeg2Rad;
  const double lon_rad = lon * kDeg2Rad;
  // Hemisphere-antisymmetric amplitude, modulated in longitude (western
  // boundary regions respond more strongly than ocean interiors).
  const double amp = opts.seasonal_amplitude * std::sin(lat_rad) *
                     (1.0 + 0.28 * std::sin(lon_rad + 2.2));
  // Longitude-dependent seasonal lag (+-4 weeks): continental coasts lead,
  // maritime interiors trail. This puts the annual cycle's sine AND cosine
  // quadratures into the spatial field, spreading periodic variance over
  // several POD modes exactly as in the observed SST record.
  const double lag = 4.0 * std::sin(lon_rad + 1.0);
  const double semi = opts.semiannual_amplitude * std::abs(std::sin(lat_rad)) *
                      (1.0 + 0.3 * std::cos(lon_rad - 0.7));
  return {amp, lag, semi};
}

/// Annual + semi-annual cycle at (possibly phase-shifted) week time `t`.
double seasonal_at(const SeasonalCell& cell, double t) {
  const double phase =
      2.0 * std::numbers::pi * (t + cell.lag) / kWeeksPerYear;
  // Week 0 is late October; peak NH warmth sits in late August, i.e. about
  // 8.5 weeks before the epoch.
  const double annual = cell.amp * std::cos(phase + 2.0 * std::numbers::pi *
                                                        8.5 / kWeeksPerYear);
  const double semi = cell.semi * std::cos(2.0 * phase + 0.9);
  return annual + semi;
}

double trend_per_week(const SSTOptions& opts) {
  return opts.trend_per_decade / (10.0 * kWeeksPerYear);
}

double trend_weight(double lat) {
  return 0.4 + 0.6 * std::cos(lat * kDeg2Rad);
}

double eddy_envelope(double lat) {
  // Eddy kinetic energy concentrates along mid-latitude boundary currents.
  const double lat_rad = lat * kDeg2Rad;
  return 0.35 + 0.65 * std::pow(std::sin(2.0 * lat_rad), 2);
}

/// The (lat-cell, lon-cell) half of a noise hash key.
std::uint64_t noise_cell_key(double lat, double lon) {
  const auto qlat = static_cast<std::uint64_t>((lat + 90.0) * 16.0);
  const auto qlon = static_cast<std::uint64_t>(lon * 16.0);
  return hash_combine(qlat, qlon);
}
}  // namespace

struct SyntheticSST::CellTerms {
  double climatology;
  SeasonalCell seasonal;
  double trend_weight;
  double enso_pattern;
  double tele_pattern;
  std::uint64_t noise_key;
};

struct SyntheticSST::WeekTerms {
  double t;
  double enso;   // enso_amplitude * enso_index(t)
  double tele;   // tele_amplitude * tele_index(t)
  double trend;  // warming per week * t
  std::uint64_t noise_key;
};

SyntheticSST::SyntheticSST(SSTOptions options) : opts_(options) {
  // Lorenz-63 (sigma=10, rho=28, beta=8/3) integrated with RK4 at fine
  // steps; weekly samples of x become the ENSO index and of y (offset by a
  // quarter of the record) the teleconnection index, each standardized.
  // Deterministic: fixed initial condition and step size.
  const std::size_t horizon = kSeriesWeeks;
  const double dt_natural = 0.004;
  const double week_natural = opts_.chaos_rate;
  const auto steps_per_week =
      static_cast<std::size_t>(week_natural / dt_natural) + 1;
  const double dt = week_natural / static_cast<double>(steps_per_week);

  constexpr double kSigma = 10.0, kRho = 28.0, kBeta = 8.0 / 3.0;
  auto deriv = [](const std::array<double, 3>& s) {
    return std::array<double, 3>{kSigma * (s[1] - s[0]),
                                 s[0] * (kRho - s[2]) - s[1],
                                 s[0] * s[1] - kBeta * s[2]};
  };
  auto rk4_step = [&](std::array<double, 3>& s) {
    const auto k1 = deriv(s);
    std::array<double, 3> tmp;
    for (int i = 0; i < 3; ++i) tmp[i] = s[i] + 0.5 * dt * k1[i];
    const auto k2 = deriv(tmp);
    for (int i = 0; i < 3; ++i) tmp[i] = s[i] + 0.5 * dt * k2[i];
    const auto k3 = deriv(tmp);
    for (int i = 0; i < 3; ++i) tmp[i] = s[i] + dt * k3[i];
    const auto k4 = deriv(tmp);
    for (int i = 0; i < 3; ++i) {
      s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
  };

  std::array<double, 3> state{1.0, 1.0, 20.0};
  // Burn onto the attractor.
  for (std::size_t s = 0; s < 200 * steps_per_week; ++s) rk4_step(state);

  std::vector<double> xs, ys;
  xs.reserve(horizon);
  ys.reserve(horizon);
  for (std::size_t w = 0; w < horizon; ++w) {
    xs.push_back(state[0]);
    ys.push_back(state[1]);
    for (std::size_t s = 0; s < steps_per_week; ++s) rk4_step(state);
  }

  auto standardize = [](std::vector<double>& v) {
    double m = 0.0;
    for (double x : v) m += x;
    m /= static_cast<double>(v.size());
    double var = 0.0;
    for (double x : v) var += (x - m) * (x - m);
    const double sd = std::sqrt(var / static_cast<double>(v.size()));
    for (double& x : v) x = (x - m) / (sd > 1e-12 ? sd : 1.0);
  };
  standardize(xs);
  standardize(ys);
  // Offset the teleconnection series so the two indices decorrelate.
  const std::size_t offset = horizon / 4;
  tele_series_.resize(horizon);
  for (std::size_t w = 0; w < horizon; ++w) {
    tele_series_[w] = ys[(w + offset) % horizon];
  }
  enso_series_ = std::move(xs);

  truth_bank_ = make_bank(opts_.seed);
  extend_amp_series(truth_bank_, kSeriesWeeks);
}

double SyntheticSST::climatology(double lat) const noexcept {
  const double c = std::cos(lat * kDeg2Rad);
  // Warm pool ~29.5 C at the equator, below-freezing brine near the poles.
  return 31.0 * c * c - 1.6;
}

double SyntheticSST::seasonal(double lat, double lon, double week_time,
                              double phase_shift_weeks) const noexcept {
  return seasonal_at(seasonal_cell(opts_, lat, lon),
                     week_time + phase_shift_weeks);
}

double SyntheticSST::trend(double lat, double week_time) const noexcept {
  return trend_per_week(opts_) * week_time * trend_weight(lat);
}

double SyntheticSST::enso_index(double week_time) const {
  const double t = std::max(0.0, week_time);
  const std::size_t i0 = record_week(t, "enso_index");
  const double frac = t - static_cast<double>(i0);
  const double lorenz =
      (1.0 - frac) * enso_series_[i0] + frac * enso_series_[i0 + 1];
  // ENSO blend: a recurrent quasi-periodic backbone (a ~3.7-year cycle
  // amplitude-modulated on a decadal scale plus a ~2.2-year overtone — the
  // part an emulator trained on 8 years can learn) with a chaotic Lorenz
  // component on top (the part that defeats linear AR extrapolation). The
  // weights are chosen so the blended index has ~unit variance (the qp
  // term's own sd is ~0.78), keeping the ENSO mode's energy solidly inside
  // the retained POD basis.
  const double qp =
      (std::sin(2.0 * std::numbers::pi * t / 192.0 + 0.7) *
           (1.0 + 0.45 * std::sin(2.0 * std::numbers::pi * t / 1040.0 + 1.9)) +
       0.35 * std::sin(2.0 * std::numbers::pi * t / 113.0)) /
      0.78;
  const double base = 0.85 * qp + 0.52 * lorenz;
  // Regime change: events strengthen through the record (the observed
  // post-1990 intensification), pushing test-period amplitudes outside the
  // 1981-89 training support.
  return base * (1.0 + opts_.enso_envelope_growth * t);
}

double SyntheticSST::tele_index(double week_time) const {
  const double t = std::max(0.0, week_time);
  const std::size_t i0 = record_week(t, "tele_index");
  const double frac = t - static_cast<double>(i0);
  const double lorenz =
      (1.0 - frac) * tele_series_[i0] + frac * tele_series_[i0 + 1];
  // Same blend philosophy (and ~unit variance) as the ENSO index, with
  // its own periods.
  const double qp =
      (std::sin(2.0 * std::numbers::pi * t / 271.0 + 2.3) +
       0.4 * std::sin(2.0 * std::numbers::pi * t / 89.0 + 0.4)) /
      0.76;
  return 0.85 * qp + 0.52 * lorenz;
}

double SyntheticSST::tele_pattern(double lat, double lon) const noexcept {
  // Mid-latitude North-Pacific blob (a PDO/NPGO-like loading).
  const double dlat = (lat - 42.0) / 13.0;
  const double dlon = (lon - 185.0) / 40.0;
  return std::exp(-dlat * dlat - dlon * dlon);
}

double SyntheticSST::enso_pattern(double lat, double lon) const noexcept {
  // Broad enough that the ENSO mode carries top-5 global POD energy, as
  // the observed field's ENSO mode does.
  const double dlat = lat / 11.0;
  const double dlon = (lon - 235.0) / 50.0;
  return std::exp(-dlat * dlat - dlon * dlon);
}

SyntheticSST::WaveBank SyntheticSST::make_bank(
    std::uint64_t realization_seed) const {
  Rng rng(hash_combine(realization_seed, 0xEDD1E5ULL));
  WaveBank bank;
  bank.waves.resize(static_cast<std::size_t>(opts_.eddy_waves));
  const double per_wave =
      opts_.eddy_amplitude /
      std::sqrt(0.5 * static_cast<double>(bank.waves.size()));
  for (Wave& w : bank.waves) {
    w.amp = per_wave * rng.uniform(0.6, 1.4);
    // Wavenumbers in cycles over the domain: mesoscale (5..22 around the
    // globe). Periods span 14..90 weeks — slow enough that an 8-week
    // history carries predictive information about the next 8 weeks.
    w.klat = rng.uniform(3.0, 14.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    w.klon = rng.uniform(5.0, 22.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    w.omega = 2.0 * std::numbers::pi / rng.uniform(14.0, 90.0);
    w.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    w.amp_seed = rng.next();
  }
  bank.amp_series.resize(bank.waves.size());
  return bank;
}

void SyntheticSST::extend_amp_series(WaveBank& bank, std::size_t weeks) const {
  // AR(1) amplitude factors per wave: a(t) = 1 + d(t) with
  // d(t) = phi d(t-1) + e(t), d(-1) = 0, scaled to the configured
  // modulation depth. The innovations come from a per-wave hash stream.
  // From week 3 on, d(t-1) is re-read from the stored factor as
  // a(t-1) - 1, which is not bitwise d(t-1). The record is defined that
  // way, and it makes each factor a function of its week alone, however
  // far the series is grown per call. Series only ever grow from empty
  // to at least 3 weeks, so weeks 0-2 always come from one pass.
  const double phi = opts_.eddy_ar1;
  const double innovation_sd =
      opts_.eddy_modulation * std::sqrt(std::max(1e-9, 1.0 - phi * phi));
  for (std::size_t m = 0; m < bank.waves.size(); ++m) {
    auto& s = bank.amp_series[m];
    if (s.size() >= weeks) continue;
    double prev_dev = s.empty() ? 0.0 : s.back() - 1.0;
    s.reserve(weeks);
    for (std::size_t w = s.size(); w < weeks; ++w) {
      const double innovation =
          innovation_sd *
          hash_normal(bank.waves[m].amp_seed, w, 0xA3ULL, 0x77ULL);
      const double dev = phi * prev_dev + innovation;
      s.push_back(1.0 + dev);
      prev_dev = w < 2 ? dev : s.back() - 1.0;
    }
  }
}

const SyntheticSST::WaveBank& SyntheticSST::waves_for(
    std::uint64_t realization_seed, std::size_t weeks) const {
  if (realization_seed == opts_.seed) return truth_bank_;
  auto it = std::find_if(
      wave_cache_.begin(), wave_cache_.end(),
      [&](const auto& entry) { return entry.first == realization_seed; });
  if (it == wave_cache_.end()) {
    wave_cache_.emplace_back(realization_seed, make_bank(realization_seed));
    it = std::prev(wave_cache_.end());
  }
  extend_amp_series(it->second, weeks);
  return it->second;
}

void SyntheticSST::eddy_product(std::uint64_t realization_seed,
                                std::span<const LatLon> points,
                                std::span<const double> times,
                                double* out) const {
  const WaveBank& bank = waves_for(
      realization_seed,
      times.empty() ? 0 : record_week(std::max(0.0, times.back()), "eddy") + 3);
  const std::size_t k = 2 * bank.waves.size();
  const std::size_t count = times.size();
  // W (k x count), serially: its amplitude reads throw past the horizon.
  std::vector<double> w(k * count);
  for (std::size_t c = 0; c < count; ++c) {
    const double t = std::max(0.0, times[c]);
    const std::size_t i0 = record_week(t, "eddy");
    const double frac = t - static_cast<double>(i0);
    for (std::size_t m = 0; m < bank.waves.size(); ++m) {
      const Wave& wave = bank.waves[m];
      const double a = (1.0 - frac) * bank.amp_series[m][i0] +
                       frac * bank.amp_series[m][i0 + 1];
      const double b = wave.omega * times[c];
      w[2 * m * count + c] = a * wave.amp * std::cos(b);
      w[(2 * m + 1) * count + c] = a * wave.amp * std::sin(b);
    }
  }
  // E (points x k), parallel over points: a sin and a cos (~25 flops
  // each) per wave and row.
  std::vector<double> e(points.size() * k);
  const double cost =
      25.0 * static_cast<double>(points.size()) * static_cast<double>(k);
  hpc::parallel_for(0, points.size(), cost, [&](std::size_t lo,
                                                std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double env = eddy_envelope(points[i].lat);
      const double u = points[i].lat / 180.0;
      const double v = points[i].lon / 360.0;
      double* row = e.data() + i * k;
      for (std::size_t m = 0; m < bank.waves.size(); ++m) {
        const Wave& wave = bank.waves[m];
        const double phase =
            2.0 * std::numbers::pi * (wave.klat * u + wave.klon * v) +
            wave.phase;
        row[2 * m] = env * std::sin(phase);
        row[2 * m + 1] = -env * std::cos(phase);
      }
    }
  });
  // Outside any parallel region, so the GEMM splits its rows itself.
  gemm_raw(Trans::kNone, Trans::kNone, points.size(), count, k, 1.0,
           e.data(), k, w.data(), count, 0.0, out, count);
}

double SyntheticSST::eddy(double lat, double lon, double week_time,
                          std::uint64_t realization_seed) const {
  const LatLon point{lat, lon};
  double out = 0.0;
  eddy_product(realization_seed, {&point, 1}, {&week_time, 1}, &out);
  return out;
}

Matrix SyntheticSST::eddies(std::span<const LatLon> points,
                            std::size_t week0, std::size_t count,
                            std::uint64_t realization_seed) const {
  std::vector<double> times(count);
  std::iota(times.begin(), times.end(), static_cast<double>(week0));
  Matrix out(points.size(), count);
  eddy_product(realization_seed, points, times, out.flat().data());
  return out;
}

SyntheticSST::CellTerms SyntheticSST::cell_terms(double lat,
                                                 double lon) const {
  return {.climatology = climatology(lat),
          .seasonal = seasonal_cell(opts_, lat, lon),
          .trend_weight = trend_weight(lat),
          .enso_pattern = enso_pattern(lat, lon),
          .tele_pattern = tele_pattern(lat, lon),
          .noise_key = noise_cell_key(lat, lon)};
}

double SyntheticSST::compose(const CellTerms& cell, const WeekTerms& week,
                             double eddy) const noexcept {
  const double noise =
      opts_.noise_sigma *
      normal_from_key(hash_combine(week.noise_key, cell.noise_key));
  const double temp = cell.climatology + seasonal_at(cell.seasonal, week.t) +
                      week.trend * cell.trend_weight +
                      week.enso * cell.enso_pattern +
                      week.tele * cell.tele_pattern + eddy + noise;
  // Sea water cannot cool much below the freezing point of brine.
  return std::max(temp, -1.9);
}

double SyntheticSST::value(double lat, double lon, std::size_t week) const {
  const LatLon point{lat, lon};
  return values({&point, 1}, week, 1)(0, 0);
}

std::vector<double> SyntheticSST::field(const Grid& grid,
                                        std::size_t week) const {
  const Matrix s = values(grid_points(grid), week, 1);
  return {s.flat().begin(), s.flat().end()};
}

Matrix SyntheticSST::snapshots(const LandMask& mask, std::size_t week0,
                               std::size_t count) const {
  return values(mask.ocean_points(), week0, count);
}

Matrix SyntheticSST::values(std::span<const LatLon> points,
                            std::size_t week0, std::size_t count) const {
  // Week terms are cheap and may throw (past the horizon): build them
  // serially, so the parallel regions only read.
  std::vector<WeekTerms> weeks;
  std::vector<double> times;
  for (std::size_t c = 0; c < count; ++c) {
    const double t = static_cast<double>(week0 + c);
    weeks.push_back({.t = t,
                     .enso = opts_.enso_amplitude * enso_index(t),
                     .tele = opts_.tele_amplitude * tele_index(t),
                     .trend = trend_per_week(opts_) * t,
                     .noise_key = hash_combine(opts_.seed, week0 + c)});
    times.push_back(t);
  }
  Matrix s(points.size(), count);
  // flat() bumps the version counter: take the pointer once, not per task.
  double* const out = s.flat().data();
  eddy_product(opts_.seed, points, times, out);
  // compose() overwrites each eddy value with the temperature, a row per
  // cell: ~12 transcendentals for the cell terms, then ~8 per entry
  // (seasonal cosines, noise log/sqrt/cos), ~25 flops each.
  const double cost = 25.0 * static_cast<double>(points.size()) *
                      (12.0 + 8.0 * static_cast<double>(count));
  hpc::parallel_for(0, points.size(), cost, [&](std::size_t lo,
                                                std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const CellTerms cell = cell_terms(points[i].lat, points[i].lon);
      double* row = out + i * count;
      for (std::size_t c = 0; c < count; ++c) {
        row[c] = compose(cell, weeks[c], row[c]);
      }
    }
  });
  return s;
}

}  // namespace geonas::data
