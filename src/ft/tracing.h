// Folds the flat FtPoint probe stream (ft/probe.h) into TraceRecorder spans.
// Both runtimes feed it: the simulator's schemes (on simulated time) and
// RtRuntime (subscribed via add_probe, on a caller-supplied steady clock).
//
// Checkpoint side, per HAU track: token-collection → [fork] → serialize →
// disk-io, correlated by checkpoint id; token movement as instants. An
// application-wide checkpoint start (hau = -1, the rt coordinator's epoch
// initiation) is an instant on the controller track. Recovery side: a
// "recovery" umbrella span (controller track for whole-application
// recovery, the HAU's track for baseline single-HAU recovery) containing
// phase1-reload / phase2-read / phase3-rebuild / phase4-reconnect. Each
// phase closes the phase span still open on its track, so the phases of
// one track never nest.
//
// The tracer is defensive about aborted protocol states: an abandoned epoch
// closes the spans it opened, recovery start closes every span of the epoch
// it aborts, and recovery completion closes anything a dead participant left
// dangling — so a capture of a chaos run still balances (check_trace).
//
// Thread-safe: on() runs under one mutex and reads the clock inside it, so
// probes arriving from the rt engine's worker and helper threads and the
// runtime's control thread land on every track in timestamp order.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "common/trace.h"
#include "common/units.h"
#include "ft/probe.h"

namespace ms::ft {

class ProbeTracer {
 public:
  /// `now` supplies the emission timestamp (the scheme's simulation clock,
  /// or a steady clock for the rt runtime).
  ProbeTracer(TraceRecorder* trace, std::function<SimTime()> now);

  /// Feed one probe point; safe to subscribe directly via
  /// scheme.add_probe([&](auto p, int h, auto id) { tracer.on(p, h, id); }).
  void on(FtPoint point, int hau, std::uint64_t id);

 private:
  int tid(int hau) const;
  /// Close every span on `hau`'s track / on every track.
  void end_track(SimTime ts, int hau);
  void end_everything(SimTime ts);

  TraceRecorder* trace_;
  std::function<SimTime()> now_;
  std::mutex mu_;
  /// HAUs with checkpoint spans currently open, by epoch id — so an epoch
  /// abandonment can close exactly the tracks it left dangling.
  std::map<int, std::uint64_t> open_ckpt_;
  /// HAUs (-1: controller) whose track has a recovery phase span open.
  std::set<int> open_phase_;
};

}  // namespace ms::ft
