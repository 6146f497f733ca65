// Order statistics over per-run samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2e {

/// Quantile `q` in [0, 1] of `v`, interpolated linearly between order
/// statistics; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

template <typename T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}

}  // namespace e2e
