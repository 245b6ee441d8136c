// Hash-based standard normals for the synthetic data layer (internal to
// geonas_data): a (seed, a, b, c) tuple maps to one N(0, 1) draw, so
// noise fields are pure functions of their coordinates.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "tensor/random.hpp"

namespace geonas::data {

/// Box-Muller draw from a 64-bit hash key.
inline double normal_from_key(std::uint64_t h) {
  std::uint64_t s1 = splitmix64(h);
  std::uint64_t s2 = splitmix64(h);
  double u1 = static_cast<double>(s1 >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(s2 >> 11) * 0x1.0p-53;
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

/// Hash a (seed, week, lat-cell, lon-cell) tuple into a standard normal.
/// The key is hash_combine(hash_combine(seed, a), hash_combine(b, c)), so
/// callers that loop over one pair may hoist that half.
inline double hash_normal(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b, std::uint64_t c) {
  return normal_from_key(
      hash_combine(hash_combine(seed, a), hash_combine(b, c)));
}

}  // namespace geonas::data
