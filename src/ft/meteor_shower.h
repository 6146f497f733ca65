// Meteor Shower — the paper's fault-tolerance scheme, in three variants:
//
//   MS-src       (§III-A): source preservation + trickling tokens +
//                synchronous individual checkpoints.
//   MS-src+ap    (§III-B): controller broadcasts a token command; HAUs emit
//                1-hop tokens, align on token arrival, then checkpoint
//                asynchronously behind a forked (copy-on-write) helper while
//                normal processing continues; in-flight tuples between the
//                incoming and outgoing tokens are captured with the state.
//   MS-src+ap+aa (§III-C): adds application-aware checkpoint timing driven
//                by state-size profiling and alert mode (see AaController).
//
// The controller runs on the storage node: it initiates checkpoints,
// aggregates per-HAU completion reports, truncates the sources' preserved
// logs once an application checkpoint completes, detects failures (pinging
// source nodes; other nodes are monitored by their upstream neighbours) and
// orchestrates whole-application recovery.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "core/application.h"
#include "ft/aa_controller.h"
#include "ft/aa_sampler.h"
#include "ft/cadence_controller.h"
#include "ft/failure_detector.h"
#include "ft/params.h"
#include "ft/probe.h"
#include "ft/protocol.h"
#include "ft/sim_runtime.h"
#include "ft/stats.h"
#include "ft/tracing.h"

namespace ms::ft {

enum class MsVariant { kSrc, kSrcAp, kSrcApAa };

const char* ms_variant_name(MsVariant v);

class MsHauFt;

class MsScheme {
 public:
  MsScheme(core::Application* app, const FtParams& params, MsVariant variant);

  /// Install per-HAU attachments. Call between deploy() and start().
  void attach();

  /// Begin controller activity: the periodic checkpoint schedule (if
  /// params.periodic) and, for the +aa variant, the observation/profiling
  /// pipeline. Call after Application::start().
  void start();

  MsVariant variant() const { return variant_; }
  const FtParams& params() const { return params_; }
  core::Application& app() { return *app_; }

  /// Fire one application checkpoint now (benches, Oracle triggers, AA).
  void trigger_checkpoint();

  /// Whole-application recovery: every failed HAU restarts on the next node
  /// from `replacements` (or in place, if its own node came back); every
  /// HAU (failed or not) is rolled back to the most recent completed
  /// application checkpoint; sources replay their preserved logs. `done`
  /// receives the phase breakdown of Fig. 16.
  ///
  /// Degrades instead of aborting: called while a recovery is already in
  /// flight it queues a re-entrant pass and returns kFailedPrecondition;
  /// with too few replacements it recovers what it can, leaves the rest
  /// failed for a later pass, and returns kResourceExhausted. HAUs that die
  /// *during* the recovery (a second burst) are abandoned by a watchdog so
  /// the phase barriers still close, then picked up by the queued re-check.
  Status recover_application(std::vector<net::NodeId> replacements,
                             std::function<void(RecoveryStats)> done);

  /// Enable automatic failure detection + recovery using `spares` as the
  /// replacement pool (controller pings sources; upstream HAUs monitor
  /// their downstream neighbours).
  void enable_failure_detection(std::vector<net::NodeId> spares);

  /// Return repaired nodes to the replacement pool.
  void add_spares(std::vector<net::NodeId> spares);
  std::size_t spares_left() const { return spares_.size(); }

  /// Fault injection: until `until` (sim time), heartbeat replies from
  /// `node` are delayed by `delay` before being sent. A delay longer than
  /// the ping period makes the node look silent — the detector suspects it —
  /// while the late replies exonerate it before the verdict threshold.
  void set_heartbeat_delay(net::NodeId node, SimTime delay, SimTime until);

  /// The shared heartbeat detector behind ping_sources / the monitors
  /// (units are node ids). Valid for the scheme's lifetime.
  FailureDetector& detector() { return *detector_; }

  /// Subscribe to protocol instrumentation points (chaos harness, tracer,
  /// tests). Every subscriber sees every point, in subscription order.
  void add_probe(FtProbe probe) { probes_.push_back(std::move(probe)); }

  /// Install a trace recorder: probe points are folded into per-HAU spans
  /// (see ft/tracing.h), tracks are labelled, and the AA controller emits
  /// its decisions as instants.
  void set_trace(TraceRecorder* trace);

  /// Redirect metric recording (defaults to MetricsRegistry::global()).
  void set_metrics(MetricsRegistry* metrics);

  /// Most recent degradation seen by the detection/recovery path (spare
  /// exhaustion, re-entrant queuing); OK when the last pass was clean.
  const Status& last_recovery_error() const { return last_recovery_error_; }

  // --- stats ---
  const std::vector<AppCheckpointStats>& checkpoints() const {
    return coordinator_->checkpoints();
  }
  const std::vector<RecoveryStats>& recoveries() const { return recoveries_; }
  /// Most recent completed application checkpoint id (0 = none).
  std::uint64_t last_completed_checkpoint() const {
    return coordinator_->last_completed();
  }
  AaController& aa() { return aa_; }
  /// Non-null only when params.adaptive_cadence is set: the feedback
  /// controller retuning the periodic interval (fifth scheme).
  CadenceController* cadence() { return cadence_.get(); }
  /// The execution-agnostic controller (ft/protocol.h) driving the epochs.
  CheckpointCoordinator& coordinator() { return *coordinator_; }

  std::string checkpoint_key(int hau_id, std::uint64_t ckpt_id) const;
  std::string preserve_key(int hau_id) const;

  // --- controller messaging (also used by MsHauFt) ---
  /// Run `fn` at the controller after a control-message delay from `from`.
  void to_controller(const core::Hau& from, Bytes size,
                     std::function<void()> fn);
  /// Run `fn(hau)` at an HAU after a control-message delay from the
  /// controller; dropped if the HAU fails or restarts meanwhile.
  void to_hau(core::Hau& hau, Bytes size, std::function<void(core::Hau&)> fn);

 private:
  friend class MsHauFt;

  bool synchronous() const { return variant_ == MsVariant::kSrc; }
  bool application_aware() const { return variant_ == MsVariant::kSrcApAa; }

  void begin_checkpoint();
  void on_hau_report(const HauCheckpointReport& report);
  /// SimRuntime epoch hooks: the variant-specific command fan-out and the
  /// post-completion GC + source-truncation pass.
  void start_epoch_fanout(std::uint64_t ckpt_id);
  void commit_epoch_fanout(std::uint64_t ckpt_id);

  // AA plumbing (AaController hooks).
  void aa_begin_observation();
  void aa_end_observation();
  void aa_observation_report_received();
  void aa_finish_observation();
  /// A 64-byte control message running `fn` at every live dynamic HAU.
  void aa_to_dynamic(std::function<void(MsHauFt&, core::Hau&)> fn);

  // Recovery plumbing.
  struct PerHauRecovery {
    bool moved = false;
    SimTime ready_at;
    SimTime phase2 = SimTime::zero();
    SimTime phase13 = SimTime::zero();
  };
  /// One whole-application recovery in flight. The per-HAU chains (phases
  /// 1–3) and the phase-4 handshakes are tracked per slot so a participant
  /// that dies mid-recovery can be abandoned without wedging the barriers.
  struct RecoveryRun {
    std::uint64_t id = 0;
    std::shared_ptr<RecoveryStats> stats;
    std::vector<PerHauRecovery> per_hau;
    std::vector<std::vector<std::pair<int, core::Tuple>>> inflights;
    std::vector<std::uint64_t> boundaries;
    std::vector<std::uint64_t> incarnations;  // at restart, per participant
    std::vector<bool> participating;  // false: left failed (no spare)
    std::vector<bool> chain_done;     // phases 1-3 finished or abandoned
    std::vector<bool> acked;          // phase-4 handshake done or abandoned
    std::vector<bool> abandoned;      // died mid-recovery
    int chains_remaining = 0;
    int acks_remaining = 0;
    bool phase4_started = false;
    SimTime phase4_start;
    std::function<void(RecoveryStats)> done;
  };
  void start_recovery_chain(const std::shared_ptr<RecoveryRun>& run, int i,
                            std::uint64_t ckpt);
  void recovery_chain_done(const std::shared_ptr<RecoveryRun>& run, int i);
  void abandon_recovery_slot(const std::shared_ptr<RecoveryRun>& run, int i);
  void recovery_watchdog(std::shared_ptr<RecoveryRun> run);
  void start_phase4(const std::shared_ptr<RecoveryRun>& run);
  void recovery_ack(const std::shared_ptr<RecoveryRun>& run, int i);
  void complete_recovery(const std::shared_ptr<RecoveryRun>& run);
  /// Detection-driven entry: scan for failed HAUs, allocate replacements
  /// from the spare pool (own node first if it came back), start or queue a
  /// recovery. Safe to call at any time.
  void maybe_recover_failed();

  void emit_probe(FtPoint point, int hau, std::uint64_t id) {
    for (const auto& probe : probes_) probe(point, hau, id);
  }

  /// (Re-)resolve the cached metric handles against metrics_.
  void bind_metrics();

  // Failure detection. Liveness is request/reply: `send_ping` sends a probe
  // from `from` to `target`; the pong (routed to the controller) feeds the
  // detector as a heartbeat, and a per-ping reply deadline one ping period
  // later counts a miss if no heartbeat landed meanwhile — covering dropped
  // pings, dropped pongs, and delayed pongs uniformly.
  void ping_sources();
  void monitor_downstream(int hau_id);
  void send_ping(net::NodeId from, net::NodeId target);
  void on_node_heartbeat(net::NodeId node);
  void on_node_miss(net::NodeId node);
  void report_node_failure(net::NodeId node);
  /// An HAU's checkpoint write failed definitively: abort the epoch so the
  /// next periodic checkpoint is not blocked until wedge-abandonment.
  void on_hau_checkpoint_failed(std::uint64_t ckpt_id);

  core::Application* app_;
  FtParams params_;
  MsVariant variant_;
  Rng rng_;
  std::uint64_t instance_;  // storage-namespace discriminator
  std::vector<MsHauFt*> fts_;  // borrowed; owned by the HAUs

  /// The execution seam: the coordinator owns the epoch state machine and
  /// acts through runtime_ (here, the sim adapter bound to this scheme's
  /// fan-out hooks).
  std::unique_ptr<SimRuntime> runtime_;
  std::unique_ptr<CheckpointCoordinator> coordinator_;
  std::unique_ptr<CadenceController> cadence_;
  std::vector<RecoveryStats> recoveries_;

  AaController aa_;
  int aa_obs_reports_ = 0;
  int aa_obs_expected_ = 0;
  bool aa_obs_closed_ = false;

  bool detection_enabled_ = false;
  bool monitors_started_ = false;
  std::unique_ptr<FailureDetector> detector_;
  struct HbDelay {
    SimTime delay;
    SimTime until;
  };
  std::map<net::NodeId, HbDelay> hb_delays_;
  bool recovery_in_progress_ = false;
  bool pending_recovery_recheck_ = false;
  std::uint64_t recovery_seq_ = 0;
  std::shared_ptr<RecoveryRun> recovery_run_;
  Status last_recovery_error_;
  std::vector<FtProbe> probes_;
  std::unique_ptr<ProbeTracer> tracer_;
  std::vector<net::NodeId> spares_;

  // Live metric handles (ft.recovery.*; the ft.ckpt.* family lives in the
  // coordinator), resolved once against metrics_ so the hot paths do no
  // name lookups.
  MetricsRegistry* metrics_;
  Counter* m_recovery_started_;
  Counter* m_recovery_completed_;
  Counter* m_recovery_abandoned_slots_;
  HistogramMetric* m_recovery_total_;
};

/// Per-HAU attachment for all Meteor Shower variants.
class MsHauFt final : public core::HauFt {
 public:
  MsHauFt(MsScheme* scheme, core::Hau& hau);

  void on_start(core::Hau& hau) override;
  void on_token_at_head(core::Hau& hau, int in_port,
                        const core::Token& token) override;
  void emit(core::Hau& hau, int out_port, core::Tuple tuple) override;
  void on_restart(core::Hau& hau) override;
  void after_process(core::Hau& hau, int in_port,
                     const core::Tuple& tuple) override;

  /// Controller command. MS-src: delivered to sources only, which
  /// checkpoint synchronously and send trickling tokens. MS-src+ap(+aa):
  /// delivered to every HAU, which emits 1-hop tokens and waits.
  void on_checkpoint_command(core::Hau& hau, std::uint64_t ckpt_id);

  /// Controller notification: application checkpoint `ckpt_id` completed;
  /// sources truncate their preserved log before its boundary.
  void on_app_checkpoint_complete(core::Hau& hau, std::uint64_t ckpt_id);

  // --- AA per-HAU protocol ---
  /// Report the observation window's (min, avg) to the controller.
  void aa_end_observation(core::Hau& hau);
  /// Answer a state-size query with (size, ICR).
  void aa_query_state(core::Hau& hau);
  AaSampler& aa_sampler() { return aa_sampler_; }

  /// Preserved source log (tuples in dispatch order, with a start offset
  /// from truncation).
  struct PreserveLog {
    struct Entry {
      int out_port = 0;
      core::Tuple tuple;  // edge_seq stamped at dispatch
    };
    std::vector<Entry> entries;
    std::uint64_t start_index = 0;  // global index of entries.front()
    Bytes bytes = 0;

    std::uint64_t end_index() const { return start_index + entries.size(); }
  };
  const PreserveLog* preserve_log() const { return log_.get(); }

  /// Replay preserved tuples from `boundary` (global log index) downstream.
  void replay_from(core::Hau& hau, std::uint64_t boundary);

  /// Resend in-flight tuples captured in the restored image.
  void resend_inflight(core::Hau& hau,
                       std::vector<std::pair<int, core::Tuple>> inflight);

  bool checkpoint_in_progress() const { return active_ckpt_id_ != 0; }

 private:
  std::uint64_t source_boundary(const core::Hau& hau) const;
  /// A command re-delivered for an epoch this HAU already knows (controller
  /// retransmission or network duplication): repair instead of re-running —
  /// re-send tokens for a still-active epoch, re-forward tokens and re-send
  /// the stored report for a completed one.
  void handle_command_redelivery(core::Hau& hau, std::uint64_t ckpt_id);
  void resend_epoch_tokens(core::Hau& hau, std::uint64_t ckpt_id,
                           bool one_hop);
  void maybe_align(core::Hau& hau);
  void do_sync_checkpoint(core::Hau& hau);
  void do_async_checkpoint(core::Hau& hau);
  void write_checkpoint(core::Hau& hau,
                        std::shared_ptr<core::CheckpointImage> image,
                        HauCheckpointReport report, bool forward_tokens);
  void flush_batch(core::Hau& hau);
  void aa_sample(core::Hau& hau);

  MsScheme* scheme_;

  // --- source preservation ---
  std::shared_ptr<PreserveLog> log_;  // sources only
  std::vector<PreserveLog::Entry> pending_batch_;
  Bytes pending_bytes_ = 0;
  bool flush_in_flight_ = false;
  bool flush_timer_armed_ = false;
  std::map<std::uint64_t, std::uint64_t> boundaries_;  // ckpt id -> log index
  std::uint64_t boundary_at_command_ = 0;

  // --- token alignment ---
  std::uint64_t active_ckpt_id_ = 0;
  std::uint64_t next_seen_epoch_ = 0;  // epochs at or above this are fresh
  SimTime initiated_at_;
  std::vector<bool> port_token_;
  int tokens_seen_ = 0;
  // True from alignment (tokens popped, snapshot started) until the write
  // completes; a further token for the active epoch then is a duplicate.
  bool align_done_ = false;
  bool capturing_ = false;
  std::vector<std::pair<int, core::Tuple>> capture_;

  // --- idempotent re-delivery (unreliable control network) ---
  // The last completed checkpoint's report, kept so a retransmitted command
  // (or, for MS-src, a duplicate trickling token) can re-forward tokens and
  // re-send the report instead of checkpointing again.
  HauCheckpointReport last_report_;
  bool has_last_report_ = false;

  AaSampler aa_sampler_;
};

}  // namespace ms::ft
