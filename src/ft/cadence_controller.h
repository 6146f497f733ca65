// Adaptive checkpoint cadence — the feedback controller behind the fifth
// scheme (MS-src+ap+delta), Khaos-style (see PAPERS.md).
//
// The paper fixes the checkpoint interval (200 s) and only *schedules*
// cleverly within it (AA minima). Khaos shows the interval itself should be
// retuned continuously from runtime metrics: checkpointing too often burns
// serialize/disk bandwidth, too rarely inflates the replay backlog a failure
// forces. This controller observes each completed application checkpoint's
// cost (the slowest unit's serialize + disk-io span) and written volume,
// EWMA-smooths them, and retunes the interval to the Young/Daly first-order
// optimum sqrt(2 * cost * MTBF), additionally capped so the expected replay
// backlog (one interval of input, replayed at replay_speedup) fits the
// configured recovery budget, and clamped to
// [cadence_min_factor, cadence_max_factor] * checkpoint_period.
//
// Like AaController this is a pure state machine — no locks, timers or
// metrics. The CheckpointCoordinator queries interval() when arming the next
// periodic initiation and feeds on_checkpoint_complete() as epochs finish;
// both the simulator (MsScheme) and the real-threads runtime (RtRuntime) own
// one and wire it the same way.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "ft/params.h"

namespace ms::ft {

class CadenceController {
 public:
  explicit CadenceController(const FtParams& params);

  /// One application checkpoint completed. `cost` is the slowest unit's
  /// serialize + disk-io span (the per-epoch tax the interval amortizes),
  /// `bytes` the epoch's declared written volume.
  void on_checkpoint_complete(SimTime cost, Bytes bytes);

  /// An epoch was abandoned (wedge, unit failure, storage failure). Counted
  /// for introspection; abandoned epochs carry no usable cost sample.
  void on_checkpoint_abandoned() { ++abandoned_; }

  /// A failure verdict landed at `now` (FailureDetector, or the rt
  /// runtime's detector scan — one event per correlated batch). With
  /// params.cadence_live_mtbf the EWMA of inter-failure gaps replaces the
  /// configured MTBF constant in the Young/Daly retune; without the flag the
  /// estimate is still tracked for introspection.
  void on_failure_event(SimTime now);

  /// The interval the next periodic initiation should use. Before the first
  /// observation this is the seed (params.checkpoint_period).
  SimTime interval() const { return interval_; }

  // --- introspection ---
  double smoothed_cost_seconds() const { return cost_s_; }
  double smoothed_bytes() const { return bytes_; }
  std::uint64_t retunes() const { return retunes_; }
  std::uint64_t abandoned() const { return abandoned_; }
  /// Live MTBF estimate; zero until two failure events have been observed.
  SimTime live_mtbf() const { return SimTime::seconds(gap_s_); }
  std::uint64_t failure_events() const { return failure_events_; }
  SimTime min_interval() const { return min_; }
  SimTime max_interval() const { return max_; }

 private:
  void retune();

  FtParams params_;
  SimTime interval_;
  SimTime min_;
  SimTime max_;
  bool have_sample_ = false;
  double cost_s_ = 0.0;
  double bytes_ = 0.0;
  std::uint64_t retunes_ = 0;
  std::uint64_t abandoned_ = 0;
  // Live failure-rate estimate (EWMA of inter-failure gaps, seconds).
  double gap_s_ = 0.0;
  SimTime last_failure_;
  bool have_failure_ = false;
  std::uint64_t failure_events_ = 0;
};

}  // namespace ms::ft
