// Real-threads adapter for ft::Runtime — the protocol layer over
// rt::RtEngine.
//
// The same CheckpointCoordinator that drives MsScheme in the simulator
// drives a live engine here. RtRuntime supplies the Runtime contract
// (wall-clock, engine timers, the operator roster, epoch actions) and owns
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
//             before its token moves on (EpochMode::kSync);
//   kSrcAp    snapshots serialize in memory and a helper writes behind the
//             dataflow (EpochMode::kAsync);
//   kSrcApAa  kSrcAp plus application-aware timing with the simulator's
//             parts: a tick on the engine timer thread feeds one AaSampler
//             per operator, and the same AaController runs its shared stage
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
// Threading: the coordinator and all epoch bookkeeping live under one
// control mutex (ctl_mu_). Engine callbacks (snapshot sink on worker/helper
// threads, protocol probes under the per-operator mutex) take ctl_mu_, so
// code holding ctl_mu_ must never call engine functions that take a
// per-operator mutex (op_state_size) — the AA tick samples outside the lock
// and reports under it. The AA samplers, their gates and the stage
// timeline's callbacks live under ctl_mu_.
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
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"
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
  /// Self-healing: a heartbeat tick on the engine timer publishes operator
  /// liveness into a FailureDetector and a supervisor thread turns
  /// missed-deadline verdicts into automatic fenced recovery with bounded
  /// exponential-backoff retries and crash-loop quarantine. The happy chaos
  /// path then needs no manual recover() call.
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
  /// epochs' snapshot deliveries first).
  void stop();

  /// Trigger one application checkpoint now.
  Status begin_checkpoint();

  /// Block until `n` application checkpoints have completed since this
  /// runtime was constructed, or `timeout` elapses. Returns true on success.
  bool wait_checkpoints(std::uint64_t n, SimTime timeout);

  /// Most recent committed (manifest-durable) epoch number; 0 = none.
  std::uint64_t last_durable_epoch() const;

  /// Whole-application restart-and-replay recovery: load the last complete
  /// epoch (phases 1-3), start the engine and re-deliver preserved source
  /// tuples past the epoch boundary (phase 4). Requires the engine stopped.
  /// On success `stats` (if non-null) receives the phase breakdown.
  Status recover(RecoveryStats* stats = nullptr);

  /// Protocol instrumentation spine (same FtPoint vocabulary as the sim
  /// schemes; chaos harnesses and tracers subscribe here). Subscribe before
  /// start(); probes fire from worker, helper and timer threads.
  void add_probe(FtProbe probe);

  /// Crash drill: from this instant the runtime stops writing checkpoint
  /// files and manifests (as a killed process would) while source-log
  /// appends continue — durable-before-dispatch holds right up to the
  /// "crash". recover() refuses (StatusCode::kAborted) until clear_crash().
  /// Under auto_recover the crash also silences heartbeats, so the
  /// supervisor detects it and self-heals.
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
  /// Null unless config.auto_recover.
  FailureDetector* detector() { return detector_.get(); }
  /// Fault injection: suppress `op`'s heartbeats for `delay` from now. The
  /// operator looks silent (suspected) without being dead — the detector
  /// must exonerate it once heartbeats resume.
  void inject_heartbeat_delay(int op, SimTime delay);

  CheckpointCoordinator& coordinator() { return *coordinator_; }
  /// Non-null only in kSrcApAa mode.
  AaController* aa() { return aa_.get(); }
  /// Non-null only in kSrcApDelta mode.
  CadenceController* cadence() { return cadence_.get(); }
  rt::RtEngine& engine() { return *engine_; }
  RtMode mode() const { return config_.mode; }

  // --- ft::Runtime (called by the coordinator under ctl_mu_) ---
  int num_units() const override;
  bool unit_is_source(int unit) const override;
  bool unit_alive(int unit) const override;
  SimTime now() const override;
  /// Wraps the engine timer; `fn` runs under ctl_mu_ (the coordinator's
  /// callbacks assume it).
  void schedule_after(SimTime delay, std::function<void()> fn) override;
  void start_epoch(std::uint64_t epoch) override;
  void commit_epoch(std::uint64_t epoch) override;
  void abandon_epoch(std::uint64_t epoch) override;

 private:
  struct EpochState {
    /// recovery_seq_ at initiation: snapshots fenced against a recovery that
    /// happened while the bytes were in flight.
    std::uint64_t fence = 0;
    SimTime initiated;
    std::map<int, SimTime> aligned_at;
    /// The MANIFEST, filled in from the ops' reports (an op without
    /// supports_delta() delivers a full record even on a delta epoch).
    EpochManifest manifest;
  };

  void emit_probe(FtPoint point, int unit, std::uint64_t id) {
    for (const auto& p : probes_) p(point, unit, id);
  }

  // Engine hook bodies.
  void on_snapshot(const rt::Snapshot& snap);
  void on_engine_proto(rt::ProtoPoint point, int op, std::uint64_t epoch);

  storage::DurableOptions durable_opts() const {
    return {config_.sync_mode, config_.disk_faults};
  }
  /// Rebuild the committed set, then scan_logs() (engine stopped).
  Status scan_existing_state();
  /// SourceLogSet::scan with the committed tip's boundaries.
  Status scan_logs();

  // Mode drivers.
  void arm_initiation();
  /// Every operator's state size. Called outside ctl_mu_: op_state_size
  /// takes the per-operator mutexes.
  std::vector<double> aa_state_sizes() const;
  void aa_sample_tick();
  void aa_end_observation();
  void aa_query_dynamic();

  // Self-heal supervisor (config.auto_recover).
  void arm_heartbeats();
  void heartbeat_tick();
  void start_supervisor();
  void stop_supervisor();
  void supervisor_loop();
  void attempt_self_heal();

  rt::RtEngine* engine_;
  RtRuntimeConfig config_;
  std::chrono::steady_clock::time_point epoch0_;

  mutable std::mutex ctl_mu_;
  std::unique_ptr<CheckpointCoordinator> coordinator_;
  std::unique_ptr<AaController> aa_;
  /// kSrcApAa: one sampler per operator, reset whenever aa_ starts (every
  /// start() and recover()). Guarded by ctl_mu_.
  std::vector<AaSampler> samplers_;
  /// In-flight epochs keyed by coordinator id, which is also the on-disk
  /// epoch number. Guarded by ctl_mu_.
  std::map<std::uint64_t, EpochState> pending_;
  /// The checkpoint directory and its committed epochs. Guarded by ctl_mu_
  /// (its const file functions excepted).
  EpochStore store_;
  /// kSrcApDelta only, like delta epochs: the mode is the one switch.
  std::unique_ptr<CadenceController> cadence_;
  bool initiation_stopped_ = false;  // guarded by ctl_mu_
  /// Recovery fence. Bumped at the start of every recover(); epoch state and
  /// timer callbacks stamped with an older value are stale in-flight
  /// messages from the pre-recovery incarnation and are dropped.
  std::atomic<std::uint64_t> recovery_seq_{0};

  /// Every source's preservation log.
  SourceLogSet logs_;

  std::vector<FtProbe> probes_;
  std::atomic<bool> crashed_{false};

  // --- self-heal supervisor state (config.auto_recover) ---
  std::unique_ptr<FailureDetector> detector_;
  std::thread supervisor_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  std::atomic<bool> supervisor_stop_{false};
  /// Per-op heartbeat suppression deadline (ns since epoch0_); written by
  /// inject_heartbeat_delay, read by heartbeat_tick.
  std::unique_ptr<std::atomic<std::int64_t>[]> hb_suppress_until_;
  std::atomic<std::uint64_t> auto_recoveries_{0};
  mutable std::mutex heal_mu_;
  Status health_ = Status::ok();     // guarded by heal_mu_
  bool quarantined_ = false;         // guarded by heal_mu_
  int crash_streak_ = 0;             // guarded by heal_mu_
  SimTime last_heal_completed_;      // guarded by heal_mu_; zero = never
  // Durable-state integrity counters.
  Counter* m_corrupt_manifests_ = nullptr;  // ft.scan.corrupt_manifests
  Counter* m_corrupt_artifacts_ = nullptr;  // ft.recovery.corrupt_artifacts
  Counter* m_fallbacks_ = nullptr;          // ft.recovery.fallbacks

  Counter* m_heal_attempts_ = nullptr;
  Counter* m_heal_success_ = nullptr;
  Counter* m_heal_failed_ = nullptr;
  Counter* m_heal_exhausted_ = nullptr;
  Counter* m_heal_quarantined_ = nullptr;
};

}  // namespace ms::ft
