#include "data/grid.hpp"

#include <algorithm>
#include <cmath>

namespace geonas::data {

std::size_t Grid::row_of_lat(double lat) const noexcept {
  const double step = 180.0 / static_cast<double>(nlat);
  const double raw = (lat + 90.0) / step;
  const auto idx = static_cast<long>(std::floor(raw));
  return static_cast<std::size_t>(
      std::clamp<long>(idx, 0, static_cast<long>(nlat) - 1));
}

std::size_t Grid::col_of_lon(double lon) const noexcept {
  double wrapped = std::fmod(lon, 360.0);
  if (wrapped < 0.0) wrapped += 360.0;
  const double step = 360.0 / static_cast<double>(nlon);
  const auto idx = static_cast<long>(std::floor(wrapped / step));
  return static_cast<std::size_t>(
      std::clamp<long>(idx, 0, static_cast<long>(nlon) - 1));
}

std::vector<LatLon> grid_points(const Grid& grid) {
  std::vector<LatLon> points;
  points.reserve(grid.cells());
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      points.push_back({grid.lat_of(i), grid.lon_of(j)});
    }
  }
  return points;
}

std::vector<std::size_t> cells_in_region(const Grid& grid,
                                         const Region& region) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < grid.nlat; ++i) {
    const double lat = grid.lat_of(i);
    if (lat < region.lat_min || lat > region.lat_max) continue;
    for (std::size_t j = 0; j < grid.nlon; ++j) {
      if (region.contains(lat, grid.lon_of(j))) out.push_back(grid.index(i, j));
    }
  }
  return out;
}

}  // namespace geonas::data
