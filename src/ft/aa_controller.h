// Application-aware checkpoint timing — the controller side of MS-src+ap+aa
// (paper §III-C2/3).
//
// Life cycle:
//   1. Observation (one profile window): every HAU tracks min/avg of its
//      state size locally; at the end each reports the pair and the
//      controller marks *dynamic* HAUs (min < threshold * avg).
//   2. Profiling (profile_periods more windows): dynamic HAUs report the
//      turning points of their state size; the controller rebuilds each
//      HAU's polyline, sums them, takes the minimum of the aggregate in
//      each window, and derives smax/smin with the relaxation factor
//      alpha >= 20 %.
//   3. Execution: per period the controller queries dynamic HAUs for
//      (size, ICR) at the period start and whenever a dynamic HAU reports a
//      greater-than-half drop. If the aggregate falls below smax it enters
//      *alert mode*; dynamic HAUs then actively report turning points, and
//      the first time the aggregate ICR turns positive the controller fires
//      the checkpoint. A period with no alert-triggered checkpoint ends
//      with a forced checkpoint.
//
// This class is a pure state machine — message transport and the actual
// checkpoint trigger are injected by both runtimes (MsScheme, RtRuntime),
// which makes the logic directly unit-testable against the paper's
// Fig. 10/11 walkthrough. start() is the one stage timeline both runtimes
// share; the per-HAU half (sampling, turning points, half-drops) is
// AaSampler (ft/aa_sampler.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/units.h"
#include "ft/params.h"
#include "ft/runtime.h"
#include "statesize/turning_point.h"

namespace ms {
class TraceRecorder;
}  // namespace ms

namespace ms::ft {

class AaController {
 public:
  enum class Phase { kObservation, kProfiling, kExecution };

  explicit AaController(const FtParams& params) : params_(params) {}

  // --- events from the runtimes ---

  void begin(SimTime now);
  /// begin() and then run the stage timeline on `runtime`'s timers. With
  /// W = profile_period (checkpoint_period when zero) and
  /// P = max(1, profile_periods), counted from now: observation ends at W,
  /// profiling at (P+1)W, and execution then runs on_period_start /
  /// on_period_end every checkpoint_period. With checkpoint_during_profiling
  /// a plain checkpoint falls at every window boundary W..(P+1)W.
  void start(Runtime* runtime);

  /// Observation result from one HAU (end of observation period).
  void report_observation(int hau_id, double min_size, double avg_size);
  /// All observation reports are in; decide the dynamic set.
  void finish_observation(SimTime now);

  /// Turning point from a dynamic HAU (profiling or alert mode).
  void report_turning_point(int hau_id, SimTime t, double size, double icr);
  /// Profiling window over: compute smax/smin from the aggregate polyline.
  void finish_profiling(SimTime now);

  /// Execution-phase events. Each may decide to fire; the caller supplies
  /// query/trigger/alert-notification callbacks via Hooks below.
  void on_period_start(SimTime now);
  void on_period_end(SimTime now);
  /// A dynamic HAU saw its state size fall by more than half.
  void on_half_drop_notification(int hau_id, SimTime now);
  /// Response to a state-size query.
  void on_query_response(int hau_id, SimTime now, double size, double icr);

  // --- injected effects ---
  struct Hooks {
    /// Send a state-size query to every dynamic HAU.
    std::function<void()> query_dynamic_haus;
    /// Fire an application checkpoint now.
    std::function<void()> trigger_checkpoint;
    /// Tell dynamic HAUs to start/stop active turning-point reporting.
    std::function<void(bool)> set_alert_reporting;
  };
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }
  /// The per-stage effects of start()'s timeline.
  struct StageHooks {
    /// Every HAU opens its observation window.
    std::function<void()> begin_observation;
    /// Collect every HAU's (min, avg); the runtime calls
    /// finish_observation once the reports are in.
    std::function<void()> end_observation;
    /// Dynamic HAUs stop reporting profiling turning points.
    std::function<void()> end_profiling;
    /// Optional: while true (a recovery in flight) the execution loop
    /// retries in one second instead of opening a period.
    std::function<bool()> blocked;
  };
  void set_stage_hooks(StageHooks hooks) { stage_ = std::move(hooks); }

  /// Emit the controller's decisions (observation/profiling done, alert
  /// mode transitions, trigger firings) as trace instants.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // --- introspection ---
  Phase phase() const { return phase_; }
  bool is_dynamic(int hau_id) const;
  const std::vector<int>& dynamic_haus() const { return dynamic_; }
  bool alert_mode() const { return alert_; }
  double smax() const { return smax_; }
  double smin() const { return smin_; }
  bool checkpoint_done_this_period() const { return checkpointed_this_period_; }
  double aggregate_size() const;
  double aggregate_icr() const;

  /// Force execution phase with a given dynamic set and threshold (tests and
  /// the Fig. 10/11 walkthrough benches).
  void force_execution(std::vector<int> dynamic_haus, double smax, double smin);

 private:
  /// Length of the observation window and of each profiling window.
  SimTime profile_window() const;
  void plain_checkpoint();
  void execution_loop();
  void evaluate_alert_entry(SimTime now);
  void maybe_fire(SimTime now);
  void trace_instant(SimTime now, const char* name);

  FtParams params_;
  Hooks hooks_;
  StageHooks stage_;
  Runtime* runtime_ = nullptr;  // start()'s timers
  TraceRecorder* trace_ = nullptr;
  Phase phase_ = Phase::kObservation;

  // observation
  std::map<int, std::pair<double, double>> observed_;  // hau -> (min, avg)
  std::vector<int> dynamic_;

  // profiling
  std::map<int, statesize::PolylineSignal> profiles_;
  SimTime profiling_started_;
  double smax_ = 0.0;
  double smin_ = 0.0;

  // execution
  struct HauReading {
    double size = 0.0;
    double icr = 0.0;
    bool valid = false;
  };
  std::map<int, HauReading> readings_;
  int outstanding_queries_ = 0;
  bool alert_ = false;
  bool checkpointed_this_period_ = false;
};

}  // namespace ms::ft
