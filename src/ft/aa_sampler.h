// The per-HAU half of application-aware checkpoint timing (paper §III-C),
// shared by both runtimes: MsHauFt feeds it a simulated HAU's state size,
// RtRuntime one engine operator's. It owns the TurningPointDetector, the
// observation window's min/avg, the half-drop rule (a minimum below half the
// preceding maximum) and the reporting gates: turning points while
// profiling, or while dynamic in alert mode; half-drops while dynamic and
// not in alert mode. Not thread-safe: the owner serializes access.
#pragma once

#include <cstdint>
#include <optional>

#include "common/units.h"
#include "statesize/turning_point.h"

namespace ms::ft {

class AaSampler {
 public:
  /// What one sample produced for the controller.
  struct Events {
    /// A turning point the gates let through (report_turning_point).
    std::optional<statesize::TurningPoint> turning_point;
    /// A greater-than-half drop (on_half_drop_notification).
    bool half_drop = false;
  };

  struct Observation {
    double min = 0.0;
    double avg = 0.0;
  };

  Events add_sample(SimTime t, double size);

  /// Start (or restart) the observation window's min/avg accumulation.
  void begin_observation();
  /// Close the window; (0, 0) when it saw no sample.
  Observation end_observation();

  /// The controller classified this HAU as dynamic (sticky).
  void mark_dynamic() { dynamic_ = true; }
  void set_profiling(bool on) { profiling_ = on; }
  void set_alert(bool on) { alert_ = on; }

  /// Slope of the current segment, for state-size query responses.
  double current_icr() const { return detector_.current_icr(); }

  /// The HAU restarted: forget the signal and stop reporting. The dynamic
  /// mark, the last maximum and the closed observation stay.
  void restart();

 private:
  statesize::TurningPointDetector detector_;
  bool dynamic_ = false;
  bool profiling_ = false;
  bool alert_ = false;
  bool observing_ = false;
  double obs_min_ = 0.0;
  double obs_sum_ = 0.0;
  std::int64_t obs_n_ = 0;
  /// The latest maximum seen while dynamic and not in alert mode.
  double last_max_ = 0.0;
};

}  // namespace ms::ft
