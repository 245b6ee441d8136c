// Lat/lon grid geometry for the (synthetic) NOAA OI SST field.
//
// The paper's data lives on a one-degree 360 x 180 grid. Our generator is
// resolution-independent: any nlat x nlon grid covers the same physical
// domain (latitude -90..90, longitude 0..360, cell-centered), so the
// default experiment scale can use a coarser grid while GEONAS_SCALE=full
// reproduces the paper's resolution with identical large-scale structure.
#pragma once

#include <cstddef>
#include <vector>

namespace geonas::data {

/// A location in degrees (a cell center, for the batched SST calls).
struct LatLon {
  double lat, lon;
};

struct Grid {
  std::size_t nlat = 180;
  std::size_t nlon = 360;

  /// Latitude of the cell-center at row i, in degrees [-90+d/2, 90-d/2].
  [[nodiscard]] double lat_of(std::size_t i) const noexcept {
    const double step = 180.0 / static_cast<double>(nlat);
    return -90.0 + (static_cast<double>(i) + 0.5) * step;
  }
  /// Longitude of the cell-center at column j, in degrees [d/2, 360-d/2].
  [[nodiscard]] double lon_of(std::size_t j) const noexcept {
    const double step = 360.0 / static_cast<double>(nlon);
    return (static_cast<double>(j) + 0.5) * step;
  }

  /// Row index of the cell containing latitude `lat` (clamped).
  [[nodiscard]] std::size_t row_of_lat(double lat) const noexcept;
  /// Column index of the cell containing longitude `lon` in [0, 360).
  [[nodiscard]] std::size_t col_of_lon(double lon) const noexcept;

  [[nodiscard]] std::size_t cells() const noexcept { return nlat * nlon; }
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const noexcept {
    return i * nlon + j;
  }

  /// The paper's native resolution.
  [[nodiscard]] static Grid paper() noexcept { return {180, 360}; }
  /// Default reduced scale for single-node experiment runs (4-degree).
  [[nodiscard]] static Grid reduced() noexcept { return {45, 90}; }
};

/// Inclusive geographic box; longitudes in [0, 360).
struct Region {
  double lat_min, lat_max;
  double lon_min, lon_max;

  [[nodiscard]] bool contains(double lat, double lon) const noexcept {
    return lat >= lat_min && lat <= lat_max && lon >= lon_min && lon <= lon_max;
  }

  /// The paper's Table I assessment region: Eastern Pacific,
  /// -10..+10 latitude, 200..250 longitude.
  [[nodiscard]] static Region eastern_pacific() noexcept {
    return {-10.0, 10.0, 200.0, 250.0};
  }
};

/// Cell centers of every cell of `grid`, row-major (Grid::index order).
[[nodiscard]] std::vector<LatLon> grid_points(const Grid& grid);

/// Grid cell indices (flattened, full grid) inside a region.
[[nodiscard]] std::vector<std::size_t> cells_in_region(const Grid& grid,
                                                       const Region& region);

}  // namespace geonas::data
