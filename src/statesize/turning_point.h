// Turning-point detection and instantaneous change rate (ICR) estimation for
// a sampled state-size signal (paper §III-C2/3).
//
// A dynamic HAU samples its state_size() periodically. When the direction of
// change flips, the previous sample is a *turning point* (local extremum).
// The ICR reported alongside a turning point is the slope of the segment
// *leaving* it — known one sample after the extremum, which is the small lag
// the paper acknowledges and ignores.
#pragma once

#include <optional>
#include <vector>

#include "common/units.h"

namespace ms::statesize {

struct TurningPoint {
  SimTime t;
  double size = 0.0;
  double icr = 0.0;  // size units per second, slope after the turning point
  bool is_minimum = false;
};

class TurningPointDetector {
 public:
  /// Relative change below this is treated as flat (noise suppression).
  explicit TurningPointDetector(double noise_epsilon = 1e-9)
      : eps_(noise_epsilon) {}

  /// Feed one sample. Returns the turning point completed by this sample, if
  /// any (the extremum lies at an *earlier* sample; `icr` is computed from
  /// the segment between that extremum and this sample).
  std::optional<TurningPoint> add_sample(SimTime t, double size);

  /// Slope of the current monotone segment (size/second), 0 before 2 samples.
  double current_icr() const { return icr_; }
  bool has_samples() const { return n_ > 0; }

  void reset();

 private:
  enum class Dir { kFlat, kUp, kDown };
  Dir direction(double from, double to) const;

  double eps_;
  int n_ = 0;
  SimTime last_t_ = SimTime::zero();
  double last_size_ = 0.0;
  Dir last_dir_ = Dir::kFlat;
  double icr_ = 0.0;
};

/// Piecewise-linear state-size function rebuilt from turning points
/// (paper Fig. 10): the controller stores only the turning points reported
/// by dynamic HAUs and linearly interpolates between them.
class PolylineSignal {
 public:
  void add_point(SimTime t, double size);
  double value_at(SimTime t) const;  // linear interpolation, clamped ends
  bool empty() const { return pts_.empty(); }
  const std::vector<std::pair<SimTime, double>>& points() const { return pts_; }

  /// Minimum over [from, to] — attained at a vertex or interval end.
  std::pair<SimTime, double> minimum_in(SimTime from, SimTime to) const;

 private:
  std::vector<std::pair<SimTime, double>> pts_;  // strictly increasing t
};

}  // namespace ms::statesize
