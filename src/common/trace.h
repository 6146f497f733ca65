// Structured protocol-event tracing.
//
// TraceRecorder is the process-wide sink for timestamped protocol events:
// token movement, alignment, fork/serialize/write phases, recovery phases,
// chaos injections, storage operations. Emitters are the fault-tolerance
// runtimes of both backends (via the FtPoint probe spine in ft/probe.h and
// ft::ProbeTracer), the chaos harness, and shared storage. The recorder is
// thread-safe (the rt runtime's probes fire from worker, helper and timer
// threads); in simulation mode everything arrives from the single
// event-loop thread in deterministic order.
//
// Events map onto the Chrome trace_event JSON format ("B"/"E" duration
// spans on per-HAU tracks, "X" complete events for storage operations, "i"
// instants for point events), so a capture loads directly into
// chrome://tracing / Perfetto. parse_chrome_trace / check_trace /
// pair_spans read a capture back for the mstrace CLI and the round-trip
// tests.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace ms {

/// One trace record. `ph` follows the Chrome trace_event phase codes:
/// 'B' begin span, 'E' end span, 'X' complete (ts + dur), 'i' instant,
/// 'M' metadata (track names).
struct TraceEvent {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;  // 'X' only
  char ph = 'i';
  int pid = 0;
  int tid = 0;
  std::string name;
  std::string cat;
  /// Correlation id (checkpoint id, recovery sequence, storage op id);
  /// exported as args.id when non-zero.
  std::uint64_t id = 0;
  /// Additional numeric args, exported verbatim into the args dict.
  std::vector<std::pair<std::string, std::int64_t>> args;
};

/// Well-known tracks. The application is pid 0 with one tid per HAU
/// (tid = hau_id + 1; on the real-threads runtime an HAU is one operator)
/// plus the controller on tid 0; shared storage is pid 1.
namespace trace_track {
inline constexpr int kAppPid = 0;
inline constexpr int kStoragePid = 1;
inline constexpr int kControllerTid = 0;
inline constexpr int hau_tid(int hau_id) { return hau_id + 1; }
}  // namespace trace_track

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Recording is on by default; a disabled recorder drops every emit so
  /// instrumented code can keep an unconditional pointer.
  void set_enabled(bool on);
  bool enabled() const;

  /// Open a span on (pid, tid). Spans on one track nest LIFO.
  void begin(SimTime ts, int pid, int tid, std::string name, const char* cat,
             std::uint64_t id = 0,
             std::vector<std::pair<std::string, std::int64_t>> args = {});
  /// Close the innermost open span on (pid, tid); no-op when none is open.
  void end(SimTime ts, int pid, int tid);
  /// Close every open span on (pid, tid) — an aborted protocol state.
  void end_all(SimTime ts, int pid, int tid);
  /// Close every open span on every track (whole-application reset points:
  /// recovery start/complete).
  void end_everything(SimTime ts);

  void instant(SimTime ts, int pid, int tid, std::string name, const char* cat,
               std::uint64_t id = 0,
               std::vector<std::pair<std::string, std::int64_t>> args = {});
  void complete(SimTime ts, SimTime dur, int pid, int tid, std::string name,
                const char* cat, std::uint64_t id = 0,
                std::vector<std::pair<std::string, std::int64_t>> args = {});

  /// Label a track in the exported trace (emitted as 'M' metadata events).
  void set_track_name(int pid, int tid, std::string name);

  std::size_t size() const;
  std::vector<TraceEvent> snapshot() const;
  /// Names of spans currently open (diagnostics / tests).
  std::vector<std::string> open_spans() const;
  void clear();

  /// Chrome trace_event JSON ({"traceEvents": [...]}); timestamps in
  /// microseconds as the format requires. Events are emitted in recording
  /// order, which is time order per track.
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;

 private:
  struct OpenSpan {
    int pid;
    int tid;
    std::string name;
  };

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::vector<TraceEvent> events_;
  std::vector<OpenSpan> open_;  // LIFO per (pid, tid), interleaved
  std::vector<std::pair<std::pair<int, int>, std::string>> track_names_;

  void end_locked(SimTime ts, int pid, int tid);
};

// --- reading a capture back (mstrace CLI, round-trip tests) ----------------

/// Parse a Chrome trace_event JSON document produced by write_chrome_json
/// (tolerates the general format: unknown keys are ignored, args values that
/// are not integers are skipped). Timestamps come back in nanoseconds.
Status parse_chrome_trace(std::string_view json, std::vector<TraceEvent>* out);

/// A matched B/E pair (or an 'X' complete event) flattened into a span.
struct TraceSpan {
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  int pid = 0;
  int tid = 0;
  std::string name;
  std::string cat;
  std::uint64_t id = 0;
};

/// Pair B/E events per track (LIFO) and convert 'X' events; unmatched
/// events are reported into `problems` when given.
std::vector<TraceSpan> pair_spans(const std::vector<TraceEvent>& events,
                                  std::vector<std::string>* problems = nullptr);

/// Structural validation: B/E balance per track, non-negative timestamps
/// and durations, per-track timestamp monotonicity. Returns human-readable
/// problem descriptions; empty means the trace is well-formed.
std::vector<std::string> check_trace(const std::vector<TraceEvent>& events);

}  // namespace ms
