// Tunables shared by all fault-tolerance schemes. Defaults follow the paper
// where it gives numbers (200 s checkpoint period, 50 MB preservation buffer,
// 20 % relaxation factor) and plausible 2012 commodity-hardware rates
// elsewhere; every knob is sweepable by the ablation benches.
#pragma once

#include "common/units.h"

namespace ms::ft {

struct FtParams {
  // --- checkpointing ---
  /// Period between application (or, for the baseline, per-HAU) checkpoints.
  SimTime checkpoint_period = SimTime::seconds(200);
  /// If false, no periodic schedule runs; benches trigger explicitly.
  bool periodic = true;
  /// CPU serialization throughput when snapshotting operator state.
  double serialize_bandwidth = 400e6;
  /// CPU deserialization + data-structure rebuild throughput (recovery
  /// phase 3).
  double deserialize_bandwidth = 500e6;
  /// Cost of forking the checkpoint helper process (MS-src+ap): the parent
  /// is blocked only for this long.
  SimTime fork_cost = SimTime::millis(15);
  /// Copy-on-write tax: processing cost multiplier is (1 + cow_tax) while an
  /// asynchronous checkpoint drains.
  double cow_tax = 0.06;
  /// Delta checkpointing (paper Sec. V: "delta-checkpointing complement[s]
  /// Meteor Shower's application-aware checkpointing and could be applied
  /// jointly"): write only the state changed since the previous checkpoint;
  /// recovery still reads the full reconstructed state. Simulator only: the
  /// rt runtime writes delta epochs in RtMode::kSrcApDelta alone.
  bool delta_checkpoints = false;
  /// rt delta chains: compact with a full snapshot after this many
  /// consecutive delta epochs...
  int delta_compact_every = 4;
  /// ...or earlier, once the chain's accumulated delta bytes exceed this
  /// multiple of the base snapshot's bytes (caps recovery read
  /// amplification).
  double delta_compact_ratio = 1.5;
  /// Also mirror the checkpoint to the node's local disk (the paper's
  /// "optionally saved again in the local disks"). Not on the completion
  /// critical path.
  bool save_local_copy = true;

  // --- adaptive cadence (CadenceController, Khaos-style) ---
  /// Continuously retune the checkpoint interval from observed checkpoint
  /// cost vs. the configured failure rate and recovery budget, instead of
  /// firing at the fixed checkpoint_period. Seeds from checkpoint_period.
  /// Simulator only: the rt runtime retunes in RtMode::kSrcApDelta alone.
  bool adaptive_cadence = false;
  /// Assumed mean time between failures — the failure-rate input to the
  /// Young/Daly optimum sqrt(2 * cost * MTBF).
  SimTime mtbf = SimTime::minutes(60);
  /// Recovery-time budget: the interval is additionally capped so the
  /// expected replay backlog (≈ one interval of input, replayed at
  /// replay_speedup) stays within it. Zero disables the cap.
  SimTime recovery_budget = SimTime::seconds(30);
  /// EWMA weight of the newest checkpoint-cost observation.
  double cadence_smoothing = 0.3;
  /// Estimate MTBF live from observed failure verdicts (EWMA of
  /// inter-failure gaps fed by FailureDetector verdicts) instead of the
  /// configured `mtbf` constant. Until the first gap is observed the
  /// configured value still seeds the optimum.
  bool cadence_live_mtbf = false;
  /// Clamp on the retuned interval, as multiples of checkpoint_period
  /// (factors keep the clamp scale-free: sim sweeps run minutes-long
  /// periods, rt demos run milliseconds).
  double cadence_min_factor = 0.125;
  double cadence_max_factor = 8.0;

  // --- input preservation (baseline) ---
  Bytes preservation_buffer = 50_MB;
  /// Per-saved-tuple CPU: a fixed part plus a fraction of the emitting
  /// operator's own per-tuple cost. The fractional form reflects that
  /// copy/serialize cost scales with the tuple complexity the operator
  /// already pays for, and is the calibrated per-application knob behind
  /// the paper's 24–51 % source-preservation gains (see DESIGN.md).
  SimTime preserve_base_cost = SimTime::micros(10);
  double preserve_cost_fraction = 0.35;
  /// The HAU stalls when its spill disk backlog exceeds this.
  SimTime spill_backlog_limit = SimTime::seconds(2);

  // --- source preservation (Meteor Shower) ---
  /// Sources batch preserved tuples before the stable-storage append; a
  /// batch is flushed when it reaches this size or age.
  Bytes source_batch_bytes = 256_KB;
  SimTime source_batch_interval = SimTime::millis(20);

  // --- failure detection ---
  SimTime ping_period = SimTime::seconds(1);
  /// Consecutive missed heartbeats before the detector issues a failure
  /// verdict. The first miss only marks the unit *suspect*; a heartbeat
  /// arriving before the threshold exonerates it (counted as a false
  /// positive) instead of triggering recovery.
  int suspicion_threshold = 3;
  /// While a checkpoint epoch is in flight, the coordinator re-issues the
  /// checkpoint command (and HAUs re-forward their tokens) every this often,
  /// so a lost token or report delays the epoch instead of wedging it.
  /// Zero disables retransmission.
  SimTime token_retransmit_timeout = SimTime::seconds(2);

  // --- self-healing (rt runtime, config.auto_recover) ---
  /// Cadence at which live operators publish heartbeats and the runtime
  /// scans the detector.
  SimTime heartbeat_period = SimTime::millis(25);
  /// A unit whose last heartbeat is older than this accrues one miss per
  /// detector scan.
  SimTime heartbeat_timeout = SimTime::millis(200);
  /// Bounded auto-recovery: retries per verdict, with exponential backoff
  /// starting at `self_heal_backoff`.
  int self_heal_max_attempts = 5;
  SimTime self_heal_backoff = SimTime::millis(50);
  /// Crash-loop quarantine: this many crashes within `crash_loop_window`
  /// of the previous heal puts the runtime in degraded mode (health()
  /// returns a non-OK Status and self-heal stops resurrecting it).
  int crash_loop_threshold = 3;
  SimTime crash_loop_window = SimTime::seconds(2);

  // --- durable-state integrity (rt runtime) ---
  /// Full epochs retained beyond the live chain as corruption-fallback
  /// rungs: when the chain tip fails verification, recovery falls back to
  /// the newest verifiable earlier epoch instead of losing everything.
  /// Source logs are truncated only to the oldest retained epoch's boundary
  /// so a fallback still replays with full fidelity. Zero disables rungs
  /// (corrupt tip = typed kDataLoss).
  int retain_fallback_epochs = 1;

  // --- shared-storage retry ---
  /// Bounded retry of shared-storage puts/gets on transient (kUnavailable)
  /// failures — a brief storage outage should not abort a checkpoint epoch
  /// or wedge a recovery read. 1 = no retry.
  int storage_retry_attempts = 3;
  /// Backoff before the first retry; doubles per attempt.
  SimTime storage_retry_backoff = SimTime::millis(100);

  // --- recovery ---
  /// Phase 1: reload operator binaries/libraries on the recovery node.
  SimTime operator_reload_cost = SimTime::millis(120);
  /// Phase 4: per-HAU reconnection handshake payload.
  Bytes reconnect_message_size = 512;
  /// Phase 4: per-connection (out-edge) re-establishment cost — socket
  /// setup, buffer allocation, subscription handshake.
  SimTime reconnect_per_edge = SimTime::millis(25);
  /// Replayed tuples are processed faster than usual to catch up (paper
  /// assumption); sources emit replay at this multiple of live rate.
  double replay_speedup = 4.0;
  /// The recovery watchdog scans at this period for HAUs that died *during*
  /// the recovery (a second burst): their per-HAU chains and phase-4
  /// handshakes are abandoned so the barrier still closes, and a follow-up
  /// recovery is queued for them.
  SimTime recovery_watchdog_period = SimTime::millis(100);

  // --- application-aware checkpointing (MS-src+ap+aa) ---
  /// Local state-size sampling period at each HAU.
  SimTime state_sample_period = SimTime::seconds(2);
  /// An HAU is dynamic if min(state) < dynamic_threshold * avg(state) over
  /// the profiling window.
  double dynamic_threshold = 0.5;
  /// Number of profiling periods observed (observation takes one more).
  int profile_periods = 2;
  /// Cadence of the observation/profiling phases. Zero = use
  /// checkpoint_period. Profiling does not need to pace itself by the
  /// checkpoint period — it only has to see a few state cycles.
  SimTime profile_period = SimTime::zero();
  /// Minimum relaxation factor alpha = (smax - smin) / smin.
  double relaxation_min = 0.2;
  /// Fire plain periodic checkpoints while observing/profiling (off for
  /// benchmark runs that must keep the warmup checkpoint-free).
  bool checkpoint_during_profiling = true;
  /// Close the observation phase this long after the end-observation
  /// commands even if reports are missing (an HAU that died after the
  /// command was sent can never report; without the timeout the profiling
  /// pipeline would wait forever).
  SimTime aa_observation_timeout = SimTime::seconds(5);
};

}  // namespace ms::ft
