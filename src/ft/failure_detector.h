// Shared heartbeat failure detector used by both runtimes.
//
// The paper's controller declares an HAU failed when its pings go
// unanswered; Su & Zhou (2015) stress that recovery quality hinges on
// detection that is both *fast* and *accurate*. This detector separates the
// two concerns: a missed heartbeat only moves a unit to the *suspect* state,
// and only `suspicion_threshold` consecutive misses produce a failure
// verdict. A late heartbeat before the threshold exonerates the suspect —
// counted in `ft.detector.false_positive` — so a slow-but-alive node under
// network delay never triggers a (costly) whole-application rollback.
//
// The clock is pluggable: the simulator injects sim-time, the real-threads
// runtime injects a monotonic wall clock, and the escalation logic is
// shared verbatim. All entry points are mutex-guarded, so callers on other
// threads may query a detector the rt runtime's control thread drives.
//
// Units are opaque ints: node ids on the sim side, operator ids on the rt
// side.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/units.h"
#include "ft/probe.h"

namespace ms {
class Counter;
class HistogramMetric;
}  // namespace ms

namespace ms::ft {

class FailureDetector {
 public:
  enum class UnitState { kAlive, kSuspect, kFailed };

  struct Params {
    /// Consecutive misses before a failure verdict.
    int suspicion_threshold = 3;
    /// Used by scan(): a unit silent for longer than this accrues one miss
    /// per scan call. Zero disables timeout-based scanning (the caller then
    /// reports misses explicitly, e.g. per unanswered ping).
    SimTime timeout = SimTime::zero();
  };

  using Clock = std::function<SimTime()>;

  FailureDetector(Params params, Clock clock);

  /// Optional: suspicion / exoneration / verdict events are announced on
  /// this probe (point, unit, cumulative miss count).
  void set_probe(FtProbe probe);

  /// Start tracking a unit; its heartbeat clock starts now. Tracking an
  /// already-tracked unit is a no-op (its state is preserved).
  void track(int unit);
  void forget(int unit);

  /// A liveness signal from `unit`. Clears accumulated suspicion; returns
  /// true iff this exonerated a suspect (a detector false positive).
  /// Heartbeats from units already under a failure verdict are ignored —
  /// recovery calls reset() when the unit is actually back.
  bool heartbeat(int unit);

  /// One missed heartbeat (an unanswered ping). Escalates kAlive → kSuspect
  /// on the first miss and kSuspect → kFailed at the suspicion threshold.
  /// Returns true iff this miss produced the failure verdict.
  bool miss(int unit);

  /// Timeout-based escalation: every tracked, not-yet-failed unit whose last
  /// heartbeat is older than `params.timeout` accrues one miss. Returns the
  /// units that crossed into kFailed on this scan. No-op if timeout is zero.
  std::vector<int> scan();

  /// Post-recovery: the unit is alive again as of now, all suspicion
  /// cleared.
  void reset(int unit);
  void reset_all();

  UnitState state(int unit) const;
  SimTime last_heartbeat(int unit) const;
  int suspicion(int unit) const;

 private:
  struct Entry {
    SimTime last_heartbeat = SimTime::zero();
    int misses = 0;
    UnitState state = UnitState::kAlive;
  };
  struct Event {
    FtPoint point;
    int unit;
    std::uint64_t id;
  };

  // Escalation core; mu_ held. Appends probe events to `out`.
  bool miss_locked(int unit, Entry& e, std::vector<Event>& out);
  void emit(const std::vector<Event>& events);

  const Params params_;
  const Clock clock_;
  FtProbe probe_;

  mutable std::mutex mu_;
  std::map<int, Entry> units_;

  Counter* m_heartbeats_;
  Counter* m_suspicions_;
  Counter* m_false_positive_;
  Counter* m_verdicts_;
  HistogramMetric* m_detection_latency_;
};

}  // namespace ms::ft
