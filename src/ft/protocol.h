// Execution-agnostic checkpoint controller.
//
// CheckpointCoordinator is the protocol state machine the paper runs on the
// storage node: it serializes application checkpoint epochs (never two in
// flight), abandons wedged epochs after a stale window, aggregates per-unit
// completion reports into AppCheckpointStats, detects application-wide
// completion, and drives the periodic schedule. It acts on the world only
// through ft::Runtime (ft/runtime.h), so the identical controller runs
// against the discrete-event simulator (SimRuntime, owned by MsScheme) and
// against real threads (RtRuntime over rt::RtEngine).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/metrics_registry.h"
#include "ft/params.h"
#include "ft/probe.h"
#include "ft/runtime.h"
#include "ft/stats.h"

namespace ms::ft {

class CadenceController;

class CheckpointCoordinator {
 public:
  /// Epoch ids start at `first_id` and are never reused: a runtime that
  /// resumes a checkpoint directory passes one past its highest epoch, so
  /// coordinator ids and on-disk epoch numbers are one sequence.
  CheckpointCoordinator(Runtime* runtime, const FtParams& params,
                        std::uint64_t first_id = 1);

  /// Redirect metric recording (defaults to MetricsRegistry::global()).
  void set_metrics(MetricsRegistry* metrics);
  /// Protocol instrumentation sink; the owner fans it out to subscribers.
  void set_probe(FtProbe probe) { probe_ = std::move(probe); }
  /// When this returns true the coordinator refuses to start epochs (a
  /// recovery is rolling the application back).
  void set_blocked_fn(std::function<bool()> blocked) {
    blocked_ = std::move(blocked);
  }

  /// Let a CadenceController retune the periodic interval: every completed
  /// epoch feeds it the slowest unit's cost, and the next periodic
  /// initiation (plus the wedge stale-window) uses its interval() instead of
  /// the fixed checkpoint_period. The controller outlives the coordinator
  /// (owned by MsScheme / RtRuntime alongside it); nullptr detaches.
  void set_cadence(CadenceController* cadence) { cadence_ = cadence; }

  /// Arm the periodic schedule (params.checkpoint_period cadence, retuned by
  /// the cadence controller when one is attached).
  void schedule_periodic();

  /// Start one application checkpoint epoch now. Skipped while blocked or
  /// while a previous epoch is still running (a wedged epoch older than
  /// three periods is abandoned first, so checkpointing can resume).
  void begin_checkpoint();

  /// One unit finished its individual checkpoint for an epoch. Duplicate
  /// deliveries of the same (epoch, unit) report — an unreliable network, or
  /// a unit re-sending after a retransmitted command — are counted once.
  void on_unit_report(const HauCheckpointReport& report);

  /// A unit's stable-storage write failed definitively: abort the epoch so
  /// the next periodic checkpoint is not blocked until wedge-abandonment.
  void on_unit_checkpoint_failed(std::uint64_t ckpt_id);

  /// The failure detector issued a verdict for `unit`: abandon every
  /// in-flight epoch that unit has not reported for — it never will, so the
  /// epoch is wedged the moment the verdict lands, not after the stale
  /// window expires in silence.
  void on_unit_failed(int unit);

  /// Abort every epoch in flight (recovery entry).
  void abort_in_progress();

  // --- stats ---
  const std::vector<AppCheckpointStats>& checkpoints() const {
    return checkpoints_;
  }
  /// Most recent completed application checkpoint id (0 = none).
  std::uint64_t last_completed() const { return last_completed_; }
  bool epoch_in_flight() const { return !in_progress_.empty(); }

 private:
  void emit(FtPoint point, int unit, std::uint64_t id) {
    if (probe_) probe_(point, unit, id);
  }
  void bind_metrics();
  void schedule_retransmit(std::uint64_t id);
  void abandon_one(std::uint64_t id, const char* why);
  SimTime effective_period() const;

  Runtime* runtime_;
  FtParams params_;
  FtProbe probe_;
  std::function<bool()> blocked_;
  CadenceController* cadence_ = nullptr;

  std::uint64_t next_checkpoint_id_;
  std::map<std::uint64_t, AppCheckpointStats> in_progress_;
  /// Units that have reported per in-flight epoch: the dedup set behind
  /// idempotent report handling, and the basis for detector-driven wedge
  /// abandonment (an epoch missing only reports from failed units is dead).
  std::map<std::uint64_t, std::set<int>> reported_units_;
  std::vector<AppCheckpointStats> checkpoints_;
  std::uint64_t last_completed_ = 0;

  MetricsRegistry* metrics_;
  Counter* m_ckpt_started_;
  Counter* m_ckpt_completed_;
  Counter* m_ckpt_abandoned_;
  Counter* m_ckpt_retransmits_;
  Counter* m_ckpt_duplicate_reports_;
  Gauge* m_ckpt_in_progress_;
  HistogramMetric* m_ckpt_token_collection_;
  HistogramMetric* m_ckpt_other_;
  HistogramMetric* m_ckpt_disk_io_;
  HistogramMetric* m_ckpt_total_;
};

}  // namespace ms::ft
