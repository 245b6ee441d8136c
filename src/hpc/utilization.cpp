#include "hpc/utilization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace geonas::hpc {

UtilizationTracker::UtilizationTracker(std::size_t nodes,
                                       double wall_time_seconds)
    : nodes_(nodes), wall_(wall_time_seconds) {
  if (nodes_ == 0 || wall_ <= 0.0) {
    throw std::invalid_argument("UtilizationTracker: bad configuration");
  }
}

void UtilizationTracker::add_busy(double start, double end) {
  start = std::max(0.0, start);
  end = std::min(wall_, end);
  if (end <= start) return;
  intervals_.emplace_back(start, end);
}

double UtilizationTracker::utilization_auc() const {
  // The busy-node curve is a step function; its trapezoidal integral is
  // exactly the summed busy time. The sum runs in 128-bit fixed point
  // (units of 2^-64 s, exact for every duration of at least 2^-12 s), and
  // integer addition does not depend on order: the bits are the same
  // whatever order the intervals were recorded in, with no sort.
  __extension__ using Fixed = unsigned __int128;
  Fixed busy = 0;
  for (const auto& [s, e] : intervals_) {
    busy += static_cast<Fixed>((e - s) * 0x1p64);  // exact scaling
  }
  return static_cast<double>(busy) * 0x1p-64 /
         (static_cast<double>(nodes_) * wall_);
}

std::vector<double> UtilizationTracker::busy_fraction_curve(double dt) const {
  if (dt <= 0.0) {
    throw std::invalid_argument("busy_fraction_curve: dt must be positive");
  }
  // Sample count: floor(wall/dt) + 1, so the last sample lands exactly
  // at `wall` whenever wall is a multiple of dt. A bare cast is
  // FP-truncation-sensitive there (0.3 / 0.1 = 2.999... would truncate
  // to 2 and drop the wall sample), so snap near-integer ratios first.
  const double ratio = wall_ / dt;
  const double nearest = std::round(ratio);
  const bool exact =
      std::abs(ratio - nearest) <= 1e-9 * std::max(1.0, std::abs(nearest));
  const double steps = exact ? nearest : std::floor(ratio);
  const auto samples = static_cast<std::size_t>(steps) + 1;
  // Event sweep: +1 at interval starts, -1 at ends.
  std::vector<std::pair<double, int>> events;
  events.reserve(intervals_.size() * 2);
  for (const auto& [s, e] : intervals_) {
    events.emplace_back(s, +1);
    events.emplace_back(e, -1);
  }
  std::sort(events.begin(), events.end());

  std::vector<double> curve(samples, 0.0);
  std::size_t ev = 0;
  long busy = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) * dt;
    while (ev < events.size() && events[ev].first <= t) {
      busy += events[ev].second;
      ++ev;
    }
    curve[i] = static_cast<double>(busy) / static_cast<double>(nodes_);
  }
  return curve;
}

}  // namespace geonas::hpc
