// Real-threads adapter for ft::Runtime — the protocol layer over
// rt::RtEngine.
//
// The same CheckpointCoordinator that drives MsScheme in the simulator
// drives a live engine here. RtRuntime supplies the Runtime contract
// (wall-clock, control timers, the operator roster, epoch actions) and owns
// everything the engine deliberately does not: checkpoint files, source
// logs, epoch commit, and restart-and-replay recovery.
//
// The checkpoint directory — layout, payloads, committed epochs, fallback
// rungs and GC — belongs to EpochStore (ft/epoch_store.h), which msverify
// reads through too. The source logs belong to SourceLogSet
// (ft/source_log.h): the engine's SourceTap appends each out-edge batch to
// them *before* it is dispatched (durable-before-dispatch), each commit
// seals and unlinks segments up to the oldest retained epoch's boundary, and
// recovery replays them past the chosen epoch's boundaries. A file that fails
// verification is never read as data: recovery falls back to an older epoch
// or returns kDataLoss, and so does a hole in the replayed record indices.
//
// Modes mirror the simulator's schemes:
//   kSrc      tokens trickle, each unit's snapshot is written synchronously
//             before its token moves on;
//   kSrcAp    snapshots serialize in memory and a helper writes behind the
//             dataflow;
//   kSrcApAa  kSrcAp plus application-aware timing with the simulator's
//             parts: a control-thread tick feeds one AaSampler per
//             operator, and the same AaController runs its shared stage
//             timeline on this runtime's timers (observation → profiling →
//             execution with alert mode; a period with no alert-fired
//             checkpoint ends with a forced one);
//   kSrcApDelta  kSrcAp plus delta checkpointing (chained op_<i>.delta
//             records, full-snapshot compaction) and a CadenceController
//             retuning the periodic interval from observed checkpoint cost
//             vs. the configured MTBF / recovery budget — the fifth scheme,
//             beyond the paper.
// Every mode is exactly-once. The paper's independent-checkpoint baseline
// runs on the simulator only (ft/baseline.h).
//
// Threading: one control thread — the paper's controller — owns all control
// state: the coordinator, the epochs in flight, the EpochStore, the cadence
// and AA controllers with their samplers, log seal and truncation, and the
// heartbeat, detector scan and self-heal. Its timers are schedule_after().
// Engine hooks post to it and return, never waiting on it: a snapshot's
// bytes are written on the worker or helper thread that took it, and the
// report follows as a post. begin_checkpoint(), start(), stop() and
// recover() each take a turn: the control thread parks while the caller
// runs the body, so control state still sees one thread at a time.
// last_durable_epoch(), wait_checkpoints() and health() read what the
// control thread publishes. Since no engine thread waits on the control
// thread, it may take a per-operator mutex (op_state_size).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/timer_thread.h"
#include "core/tuple.h"
#include "ft/aa_controller.h"
#include "ft/aa_sampler.h"
#include "ft/cadence_controller.h"
#include "ft/epoch_store.h"
#include "ft/failure_detector.h"
#include "ft/params.h"
#include "ft/probe.h"
#include "ft/protocol.h"
#include "ft/runtime.h"
#include "ft/source_log.h"
#include "ft/stats.h"
#include "rt/engine.h"
#include "storage/durable_file.h"

namespace ms::ft {

enum class RtMode { kSrc, kSrcAp, kSrcApAa, kSrcApDelta };

struct RtRuntimeConfig {
  RtMode mode = RtMode::kSrcAp;
  /// Durable directory (checkpoints, manifests, source logs). Required.
  std::string dir;
  FtParams params;
  TupleCodec codec;
  /// Redirects the coordinator's ft.ckpt.* metrics (default: global()).
  MetricsRegistry* metrics = nullptr;
  /// Self-healing: a control-thread tick publishes operator liveness into a
  /// FailureDetector, scans it, and turns missed-deadline verdicts into
  /// automatic fenced recovery with bounded exponential-backoff retries and
  /// crash-loop quarantine. The happy chaos path then needs no manual
  /// recover() call.
  bool auto_recover = false;
  /// How much is forced to media around durable writes (durable_file.h).
  /// kCommit — the paper-faithful discipline — fdatasyncs artifacts and
  /// fsyncs the parent directory around every rename commit point, but a
  /// source-log append is a write() with no fdatasync: a log segment is
  /// synced when a commit seals it. Its exactly-once covers process
  /// crashes. After a power loss only the head segment can lose records —
  /// those appended since its last seal, all after the last commit — and
  /// recovery then replays less and returns OK. kAlways covers power loss.
  storage::SyncMode sync_mode = storage::SyncMode::kCommit;
  /// Optional disk-fault hook consulted by every durable read/write
  /// (chaos drills; see failure/disk_fault.h). Not owned.
  storage::FaultInjector* disk_faults = nullptr;
};

class RtRuntime final : public Runtime {
 public:
  /// Installs the snapshot sink, source tap and protocol probe on `engine`
  /// (which must not be running yet) and scans `dir` for state left by a
  /// previous incarnation (existing logs, the highest epoch number).
  RtRuntime(rt::RtEngine* engine, RtRuntimeConfig config);
  ~RtRuntime() override;

  RtRuntime(const RtRuntime&) = delete;
  RtRuntime& operator=(const RtRuntime&) = delete;

  /// Start the engine and the mode's initiation machinery (periodic
  /// schedule or AA pipeline).
  Status start();

  /// Stop initiating checkpoints and stop the engine (drains in-flight
  /// epochs' snapshot deliveries first). Returns once the control thread has
  /// handled every report the drain delivered.
  void stop();

  /// Trigger one application checkpoint now.
  Status begin_checkpoint();

  /// Block until `n` application checkpoints have completed since this
  /// runtime was constructed, or `timeout` elapses. Returns true on success.
  bool wait_checkpoints(std::uint64_t n, SimTime timeout);

  /// Most recent committed (manifest-durable) epoch number; 0 = none. Safe
  /// from any thread, probes included.
  std::uint64_t last_durable_epoch() const;

  /// Whole-application restart-and-replay recovery: load the last complete
  /// epoch (phases 1-3), start the engine and re-deliver preserved source
  /// tuples past the epoch boundary (phase 4). Requires the engine stopped.
  /// On success `stats` (if non-null) receives the phase breakdown.
  Status recover(RecoveryStats* stats = nullptr);

  /// Protocol instrumentation spine (same FtPoint vocabulary as the sim
  /// schemes; chaos harnesses and tracers subscribe here). Subscribe before
  /// start(); probes fire from worker, helper and control threads, and must
  /// not wait on the control thread.
  void add_probe(FtProbe probe);

  /// Crash drill: from this instant the runtime stops writing checkpoint
  /// files and manifests (as a killed process would) while source-log
  /// appends continue — durable-before-dispatch holds right up to the
  /// "crash". recover() refuses (StatusCode::kAborted) until clear_crash().
  /// Under auto_recover the crash also silences heartbeats, so the
  /// detector convicts and the runtime self-heals.
  void simulate_crash() { crashed_.store(true); }
  void clear_crash() { crashed_.store(false); }
  bool crashed() const { return crashed_.load(); }

  // --- health introspection ---
  /// OK while healthy (or healed); degraded — kUnavailable with the reason —
  /// after crash-loop quarantine or retry exhaustion (config.auto_recover),
  /// or kDataLoss while a source log is missing records from a failed append
  /// that no committed checkpoint boundary covers yet (a recovery inside
  /// that window could not replay the lost tuple).
  Status health() const;
  /// Completed automatic recoveries since construction.
  std::uint64_t auto_recoveries() const { return auto_recoveries_.load(); }
  /// Null unless config.auto_recover. The detector locks itself, so its
  /// queries are safe while running.
  FailureDetector* detector() { return detector_.get(); }
  /// Fault injection: suppress `op`'s heartbeats for `delay` from now. The
  /// operator looks silent (suspected) without being dead — the detector
  /// must exonerate it once heartbeats resume.
  void inject_heartbeat_delay(int op, SimTime delay);

  /// Control-thread state: read the coordinator, the AA controller
  /// (non-null only in kSrcApAa mode) and the cadence controller (non-null
  /// only in kSrcApDelta mode) only while stopped.
  CheckpointCoordinator& coordinator() { return *coordinator_; }
  AaController* aa() { return aa_.get(); }
  CadenceController* cadence() { return cadence_.get(); }
  rt::RtEngine& engine() { return *engine_; }
  RtMode mode() const { return config_.mode; }

  // --- ft::Runtime (called by the coordinator on the control thread) ---
  int num_units() const override;
  bool unit_is_source(int unit) const override;
  bool unit_alive(int unit) const override;
  SimTime now() const override;
  /// A control-thread timer, dropped if a stop() or recover() comes first.
  void schedule_after(SimTime delay, std::function<void()> fn) override;
  void start_epoch(std::uint64_t epoch) override;
  void commit_epoch(std::uint64_t epoch) override;
  void abandon_epoch(std::uint64_t epoch) override;

 private:
  struct EpochState {
    SimTime initiated;
    std::map<int, SimTime> aligned_at;
    /// The MANIFEST, filled in from the ops' reports (an op without
    /// supports_delta() delivers a full record even on a delta epoch).
    EpochManifest manifest;
  };

  void emit_probe(FtPoint point, int unit, std::uint64_t id) {
    for (const auto& p : probes_) p(point, unit, id);
  }

  /// Run `fn` in a turn of the control thread and return its result;
  /// inline on the control thread itself.
  template <typename F>
  auto on_ctl(F fn);
  /// Publish the committed tip and the completed count.
  void publish();
  void set_health(Status st);

  // Engine hooks (engine threads) and the report they post.
  void on_snapshot(const rt::Snapshot& snap);
  void on_report(const rt::Snapshot& snap, bool wrote, SimTime serialized_at,
                 SimTime written_at);
  void on_engine_proto(rt::ProtoPoint point, int op, std::uint64_t epoch);

  storage::DurableOptions durable_opts() const {
    return {config_.sync_mode, config_.disk_faults};
  }
  /// recover()'s body, in a control-thread turn.
  Status recover_now(RecoveryStats* stats);
  /// Rebuild the committed set, then scan_logs() (engine stopped).
  Status scan_existing_state();
  /// SourceLogSet::scan with the committed tip's boundaries.
  Status scan_logs();

  // Mode drivers.
  void arm_initiation();
  void aa_sample_tick();
  void aa_end_observation();
  void aa_query_dynamic();

  // Self-heal (config.auto_recover).
  void detector_tick();
  /// Crash-loop bookkeeping for a verdict; true once quarantined.
  bool quarantine_verdict();
  void heal(int attempt);

  rt::RtEngine* engine_;
  RtRuntimeConfig config_;
  std::chrono::steady_clock::time_point epoch0_;

  // --- control-thread state (built before the thread starts) ---
  std::unique_ptr<CheckpointCoordinator> coordinator_;
  std::unique_ptr<AaController> aa_;
  /// kSrcApAa: one sampler per operator, reset whenever aa_ starts (every
  /// start() and recover()).
  std::vector<AaSampler> samplers_;
  /// In-flight epochs keyed by coordinator id, which is also the on-disk
  /// epoch number. Ids are never reused, so a report for an epoch no longer
  /// here (abandoned, or from before a recovery) is dropped.
  std::map<std::uint64_t, EpochState> pending_;
  /// The checkpoint directory and its committed epochs (its const file
  /// functions are safe from any thread).
  EpochStore store_;
  /// kSrcApDelta only, like delta epochs: the mode is the one switch.
  std::unique_ptr<CadenceController> cadence_;
  /// Bumped by every stop() and recover(): a schedule_after() timer armed
  /// before belongs to a previous run, which re-armed its own chains, and
  /// is dropped.
  std::uint64_t fence_ = 0;
  std::uint64_t recoveries_ = 0;  // recover() calls past their preconditions
  bool quarantined_ = false;
  int crash_streak_ = 0;
  SimTime last_heal_completed_;  // zero = never

  /// Every source's preservation log.
  SourceLogSet logs_;

  std::vector<FtProbe> probes_;
  std::atomic<bool> crashed_{false};

  // --- self-heal (config.auto_recover) ---
  std::unique_ptr<FailureDetector> detector_;
  /// Per-op heartbeat suppression deadline (ns since epoch0_); written by
  /// inject_heartbeat_delay, read by detector_tick.
  std::unique_ptr<std::atomic<std::int64_t>[]> hb_suppress_until_;
  std::atomic<std::uint64_t> auto_recoveries_{0};

  // --- published by the control thread, read from any thread ---
  mutable std::mutex pub_mu_;
  std::condition_variable pub_cv_;  // notified at each publish()
  std::uint64_t pub_tip_ = 0;
  std::size_t pub_completed_ = 0;
  Status pub_health_ = Status::ok();

  // Durable-state integrity counters.
  Counter* m_corrupt_manifests_ = nullptr;  // ft.scan.corrupt_manifests
  Counter* m_corrupt_artifacts_ = nullptr;  // ft.recovery.corrupt_artifacts
  Counter* m_fallbacks_ = nullptr;          // ft.recovery.fallbacks

  Counter* m_heal_attempts_ = nullptr;
  Counter* m_heal_success_ = nullptr;
  Counter* m_heal_failed_ = nullptr;
  Counter* m_heal_exhausted_ = nullptr;
  Counter* m_heal_quarantined_ = nullptr;

  /// The control thread; the destructor joins it before any member goes.
  TimerThread ctl_;
};

}  // namespace ms::ft
