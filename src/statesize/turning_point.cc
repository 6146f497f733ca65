#include "statesize/turning_point.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"

namespace ms::statesize {

TurningPointDetector::Dir TurningPointDetector::direction(double from,
                                                          double to) const {
  const double scale = std::max({std::fabs(from), std::fabs(to), 1.0});
  if (to - from > eps_ * scale) return Dir::kUp;
  if (from - to > eps_ * scale) return Dir::kDown;
  return Dir::kFlat;
}

std::optional<TurningPoint> TurningPointDetector::add_sample(SimTime t,
                                                             double size) {
  std::optional<TurningPoint> result;
  if (n_ > 0) {
    MS_CHECK_MSG(t > last_t_, "samples must advance in time");
    const Dir dir = direction(last_size_, size);
    const double dt = (t - last_t_).to_seconds();
    icr_ = (size - last_size_) / dt;
    if (dir != Dir::kFlat && last_dir_ != Dir::kFlat && dir != last_dir_) {
      // Direction flipped: the previous sample was an extremum. Report it
      // with the slope of the segment leaving it (one-sample lag).
      result = TurningPoint{
          .t = last_t_,
          .size = last_size_,
          .icr = icr_,
          .is_minimum = (dir == Dir::kUp),
      };
    }
    if (dir != Dir::kFlat) last_dir_ = dir;
  }
  last_t_ = t;
  last_size_ = size;
  ++n_;
  return result;
}

void TurningPointDetector::reset() {
  n_ = 0;
  last_dir_ = Dir::kFlat;
  icr_ = 0.0;
  last_size_ = 0.0;
}

void PolylineSignal::add_point(SimTime t, double size) {
  MS_CHECK_MSG(pts_.empty() || t > pts_.back().first,
               "polyline points must advance in time");
  pts_.emplace_back(t, size);
}

double PolylineSignal::value_at(SimTime t) const {
  MS_CHECK(!pts_.empty());
  if (t <= pts_.front().first) return pts_.front().second;
  if (t >= pts_.back().first) return pts_.back().second;
  const auto it = std::lower_bound(
      pts_.begin(), pts_.end(), t,
      [](const auto& p, SimTime v) { return p.first < v; });
  const auto& [t1, s1] = *it;
  if (t1 == t) return s1;
  const auto& [t0, s0] = *(it - 1);
  const double f = (t - t0) / (t1 - t0);
  return s0 + f * (s1 - s0);
}

std::pair<SimTime, double> PolylineSignal::minimum_in(SimTime from,
                                                      SimTime to) const {
  MS_CHECK(!pts_.empty());
  MS_CHECK(from <= to);
  std::pair<SimTime, double> best{from, value_at(from)};
  const double at_end = value_at(to);
  if (at_end < best.second) best = {to, at_end};
  for (const auto& [t, s] : pts_) {
    if (t < from || t > to) continue;
    if (s < best.second) best = {t, s};
  }
  return best;
}

}  // namespace ms::statesize
