#include "data/comparators.hpp"

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "data/hash_normal.hpp"

namespace geonas::data {

namespace {
std::vector<double> flat_copy(const Matrix& s) {
  return {s.flat().begin(), s.flat().end()};
}
}  // namespace

CESMSurrogate::CESMSurrogate(const SyntheticSST& truth, CESMOptions options)
    : truth_(&truth), opts_(options) {}

double CESMSurrogate::bias(double lat, double lon) const noexcept {
  // Smooth, fixed-in-time regional bias from coarse-grid interpolation,
  // plus the well-documented uniform warm bias of coupled-model tropical
  // SSTs (~1 C).
  const double u = lat * std::numbers::pi / 180.0;
  const double v = lon * std::numbers::pi / 180.0;
  return opts_.bias_amplitude *
             (0.55 * std::sin(2.0 * u + 0.4) * std::cos(1.5 * v + 1.1) +
              0.45 * std::sin(3.1 * u - 0.8) * std::sin(2.3 * v + 0.2)) +
         1.0;
}

double CESMSurrogate::compose(double lat, double lon, std::size_t week,
                              double eddy) const {
  const auto t = static_cast<double>(week);
  const SyntheticSST& truth = *truth_;
  const double enso_own =
      opts_.enso_damping * truth.options().enso_amplitude *
      truth.enso_index(t + opts_.enso_phase_offset) * truth.enso_pattern(lat, lon);
  // The climate run's internal variability modes evolve on their own
  // (time-offset) trajectories, damped as coupled models typically are.
  const double tele_own =
      opts_.enso_damping * truth.options().tele_amplitude *
      truth.tele_index(t + opts_.enso_phase_offset) * truth.tele_pattern(lat, lon);
  double temp = truth.climatology(lat) +
                truth.seasonal(lat, lon, t, opts_.seasonal_phase_error_weeks) +
                truth.trend(lat, t) + enso_own + tele_own + eddy +
                bias(lat, lon);
  const auto qlat = static_cast<std::uint64_t>((lat + 90.0) * 16.0);
  const auto qlon = static_cast<std::uint64_t>(lon * 16.0);
  temp += opts_.noise_sigma * hash_normal(opts_.seed, week, qlat, qlon);
  return std::max(temp, -1.9);
}

double CESMSurrogate::value(double lat, double lon, std::size_t week) const {
  return compose(lat, lon, week,
                 truth_->eddy(lat, lon, static_cast<double>(week), opts_.seed));
}

Matrix CESMSurrogate::values(std::span<const LatLon> points, std::size_t week0,
                             std::size_t count) const {
  Matrix s = truth_->eddies(points, week0, count, opts_.seed);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t c = 0; c < count; ++c) {
      s(i, c) = compose(points[i].lat, points[i].lon, week0 + c, s(i, c));
    }
  }
  return s;
}

std::vector<double> CESMSurrogate::field(const Grid& grid,
                                         std::size_t week) const {
  return flat_copy(values(grid_points(grid), week, 1));
}

Matrix CESMSurrogate::snapshots(const LandMask& mask, std::size_t week0,
                                std::size_t count) const {
  return values(mask.ocean_points(), week0, count);
}

HYCOMSurrogate::HYCOMSurrogate(const SyntheticSST& truth, HYCOMOptions options)
    : truth_(&truth), opts_(options) {}

double HYCOMSurrogate::compose(double lat, double lon, std::size_t week,
                               double truth, double eddy) const {
  const auto t = static_cast<double>(week);
  // Forecast error: an independent smooth wave field (position/timing
  // errors in the mesoscale forecast) plus interpolation noise and a small
  // systematic bias.
  const double err = eddy * (opts_.error_wave_amplitude /
                             std::max(truth_->options().eddy_amplitude, 1e-9));
  // Climate-mode mistiming: the forecast tracks the chaotic indices with a
  // lag (its data assimilation trails the real evolution).
  const double enso_err =
      opts_.enso_error_fraction *
      (truth_->options().enso_amplitude * truth_->enso_pattern(lat, lon) *
           (truth_->enso_index(t - opts_.enso_lag_weeks) -
            truth_->enso_index(t)) +
       truth_->options().tele_amplitude * truth_->tele_pattern(lat, lon) *
           (truth_->tele_index(t - opts_.enso_lag_weeks) -
            truth_->tele_index(t)));
  const auto qlat = static_cast<std::uint64_t>((lat + 90.0) * 16.0);
  const auto qlon = static_cast<std::uint64_t>(lon * 16.0);
  const double noise =
      opts_.noise_sigma * hash_normal(opts_.seed, week, qlat, qlon);
  return truth + err + enso_err + opts_.bias + noise;
}

double HYCOMSurrogate::value(double lat, double lon, std::size_t week) const {
  return compose(lat, lon, week, truth_->value(lat, lon, week),
                 truth_->eddy(lat, lon, static_cast<double>(week), opts_.seed));
}

Matrix HYCOMSurrogate::values(std::span<const LatLon> points,
                              std::size_t week0, std::size_t count) const {
  Matrix s = truth_->values(points, week0, count);
  const Matrix eddy = truth_->eddies(points, week0, count, opts_.seed);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t c = 0; c < count; ++c) {
      s(i, c) = compose(points[i].lat, points[i].lon, week0 + c, s(i, c),
                        eddy(i, c));
    }
  }
  return s;
}

std::vector<double> HYCOMSurrogate::field(const Grid& grid,
                                          std::size_t week) const {
  return flat_copy(values(grid_points(grid), week, 1));
}

Matrix HYCOMSurrogate::snapshots(const LandMask& mask, std::size_t week0,
                                 std::size_t count) const {
  return values(mask.ocean_points(), week0, count);
}

std::size_t HYCOMSurrogate::first_available_week() {
  return static_cast<std::size_t>(week_of_date(2015, 4, 5));
}

std::size_t HYCOMSurrogate::last_available_week() {
  return static_cast<std::size_t>(week_of_date(2018, 6, 24));
}

}  // namespace geonas::data
