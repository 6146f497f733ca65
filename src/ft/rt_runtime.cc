#include "ft/rt_runtime.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"

namespace ms::ft {

namespace {

MetricsRegistry& registry(const RtRuntimeConfig& config) {
  return config.metrics ? *config.metrics : MetricsRegistry::global();
}

/// The engine's source operators (members are built before the constructor
/// body runs, so the engine is checked here).
std::vector<int> source_ops(const rt::RtEngine* engine) {
  MS_CHECK_MSG(engine != nullptr, "RtRuntime: null engine");
  std::vector<int> out;
  for (int i = 0; i < engine->num_operators(); ++i) {
    if (engine->op_is_source(i)) out.push_back(i);
  }
  return out;
}

}  // namespace

template <typename F>
auto RtRuntime::on_ctl(F fn) {
  if (ctl_.on_thread()) return fn();
  // A turn: the control thread parks at this post while the caller runs
  // `fn`, so control state still sees one thread at a time, in the control
  // thread's order. `fn` runs on the caller's thread because recovery
  // allocates tens of megabytes (blob reads, decoded records, restored
  // state), and on a fresh control thread, whose malloc arena is cold, that
  // cost e2ebench's recovery_ms_p50 about 40 ms on a 4-CPU host.
  struct Turn {
    std::mutex mu;
    std::condition_variable cv;
    bool parked = false;
    bool done = false;
  };
  auto turn = std::make_shared<Turn>();
  ctl_.post([turn] {
    std::unique_lock lk(turn->mu);
    turn->parked = true;
    turn->cv.notify_all();
    turn->cv.wait(lk, [&turn] { return turn->done; });
  });
  {
    std::unique_lock lk(turn->mu);
    turn->cv.wait(lk, [&turn] { return turn->parked; });
  }
  struct Release {
    Turn& turn;
    ~Release() {
      std::scoped_lock lk(turn.mu);
      turn.done = true;
      turn.cv.notify_all();
    }
  } release{*turn};
  return fn();
}

RtRuntime::RtRuntime(rt::RtEngine* engine, RtRuntimeConfig config)
    : engine_(engine),
      config_(std::move(config)),
      epoch0_(std::chrono::steady_clock::now()),
      store_(config_.dir, durable_opts(),
             config_.params.retain_fallback_epochs),
      logs_(config_.dir, source_ops(engine_), durable_opts(), config_.codec,
            registry(config_)) {
  MS_CHECK_MSG(!engine_->running(), "RtRuntime: engine already running");
  MS_CHECK_MSG(!config_.dir.empty(), "RtRuntime: durable dir required");

  const int n = engine_->num_operators();
  MetricsRegistry& metrics = registry(config_);
  m_corrupt_manifests_ = metrics.counter("ft.scan.corrupt_manifests");
  m_corrupt_artifacts_ = metrics.counter("ft.recovery.corrupt_artifacts");
  m_fallbacks_ = metrics.counter("ft.recovery.fallbacks");
  // A log read error here is logged; recover() re-reads that log and returns
  // the error if it persists.
  (void)scan_existing_state();

  // Number epochs above every directory the scan saw, so coordinator ids are
  // the on-disk epoch numbers in this incarnation and never collide with an
  // earlier one's.
  coordinator_ = std::make_unique<CheckpointCoordinator>(
      this, config_.params, store_.epoch_base() + 1);
  if (config_.metrics) coordinator_->set_metrics(config_.metrics);
  if (config_.mode == RtMode::kSrcApDelta) {
    cadence_ = std::make_unique<CadenceController>(config_.params);
    coordinator_->set_cadence(cadence_.get());
  }
  coordinator_->set_probe([this](FtPoint point, int unit, std::uint64_t id) {
    emit_probe(point, unit, id);
  });
  // Only the control thread starts and stops the engine, and the coordinator
  // runs there too, so this reads consistent.
  coordinator_->set_blocked_fn([this] { return !engine_->running(); });

  if (config_.mode == RtMode::kSrcApAa) {
    // Every AA hook runs on the control thread, which owns samplers_.
    aa_ = std::make_unique<AaController>(config_.params);
    aa_->set_hooks(AaController::Hooks{
        .query_dynamic_haus = [this] { aa_query_dynamic(); },
        .trigger_checkpoint = [this] { coordinator_->begin_checkpoint(); },
        .set_alert_reporting =
            [this](bool on) {
              for (const int op : aa_->dynamic_haus()) {
                samplers_[op].set_alert(on);
              }
            },
    });
    aa_->set_stage_hooks(AaController::StageHooks{
        .begin_observation =
            [this] {
              samplers_.assign(
                  static_cast<std::size_t>(engine_->num_operators()),
                  AaSampler{});
              for (AaSampler& s : samplers_) s.begin_observation();
            },
        .end_observation = [this] { aa_end_observation(); },
        .end_profiling =
            [this] {
              for (const int op : aa_->dynamic_haus()) {
                samplers_[op].set_profiling(false);
              }
            },
        .blocked = nullptr,
    });
  }

  if (config_.auto_recover) {
    FailureDetector::Params dp;
    dp.suspicion_threshold = config_.params.suspicion_threshold;
    dp.timeout = config_.params.heartbeat_timeout;
    detector_ =
        std::make_unique<FailureDetector>(dp, [this] { return now(); });
    detector_->set_probe([this](FtPoint point, int unit, std::uint64_t id) {
      emit_probe(point, unit, id);
    });
    hb_suppress_until_ =
        std::make_unique<std::atomic<std::int64_t>[]>(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      hb_suppress_until_[i].store(0);
      detector_->track(i);
    }
    m_heal_attempts_ = metrics.counter("ft.selfheal.attempts");
    m_heal_success_ = metrics.counter("ft.selfheal.success");
    m_heal_failed_ = metrics.counter("ft.selfheal.failed_attempts");
    m_heal_exhausted_ = metrics.counter("ft.selfheal.exhausted");
    m_heal_quarantined_ = metrics.counter("ft.selfheal.quarantined");
  }

  engine_->set_snapshot_sink(
      [this](const rt::Snapshot& snap) { on_snapshot(snap); });
  // Logged before dispatch. Appends continue while crashed_ is set:
  // everything downstream observed before the "crash" is in the log, which
  // is exactly the guarantee recovery leans on.
  engine_->set_source_tap([this](int op, int out_port,
                                 const core::Tuple* tuples, std::size_t n) {
    logs_.append(op, out_port, tuples, n);
  });
  engine_->set_proto_probe(
      [this](rt::ProtoPoint point, int op, std::uint64_t epoch) {
        on_engine_proto(point, op, epoch);
      });
  publish();
  ctl_.start();
}

RtRuntime::~RtRuntime() {
  stop();  // also drops a self-heal retry waiting out its backoff
  // The engine may outlive this runtime; leave no dangling callbacks behind.
  engine_->set_snapshot_sink(nullptr);
  engine_->set_source_tap(nullptr);
  engine_->set_proto_probe(nullptr);
  ctl_.stop();
}

// ---------------------------------------------------------------------------
// Lifecycle

Status RtRuntime::start() {
  return on_ctl([this] {
    if (engine_->running()) {
      return Status::failed_precondition("RtRuntime: engine already running");
    }
    logs_.drop_views();  // the engine appends from here on
    engine_->start();
    arm_initiation();
    return Status::ok();
  });
}

void RtRuntime::stop() {
  on_ctl([this] {
    ++fence_;
    engine_->stop();
  });
  // The reports the drain delivered were posted behind the stop.
  on_ctl([] {});
}

void RtRuntime::arm_initiation() {
  // A stop() or recover() fenced off the previous run's timers, so every
  // (re)start arms the detector tick alongside the mode's initiation.
  if (config_.auto_recover) {
    detector_->reset_all();
    schedule_after(config_.params.heartbeat_period,
                   [this] { detector_tick(); });
  }
  switch (config_.mode) {
    case RtMode::kSrc:
    case RtMode::kSrcAp:
    case RtMode::kSrcApDelta:
      if (config_.params.periodic) coordinator_->schedule_periodic();
      break;
    case RtMode::kSrcApAa:
      aa_->start(this);  // resets the samplers
      schedule_after(config_.params.state_sample_period,
                     [this] { aa_sample_tick(); });
      break;
  }
}

Status RtRuntime::begin_checkpoint() {
  return on_ctl([this] {
    if (!engine_->running()) {
      return Status::failed_precondition("RtRuntime: engine not running");
    }
    coordinator_->begin_checkpoint();
    return Status::ok();
  });
}

bool RtRuntime::wait_checkpoints(std::uint64_t n, SimTime timeout) {
  std::unique_lock lk(pub_mu_);
  return pub_cv_.wait_for(lk, std::chrono::nanoseconds(timeout.ns()),
                          [&] { return pub_completed_ >= n; });
}

std::uint64_t RtRuntime::last_durable_epoch() const {
  std::scoped_lock lk(pub_mu_);
  return pub_tip_;
}

void RtRuntime::publish() {
  {
    std::scoped_lock lk(pub_mu_);
    pub_tip_ = store_.tip();
    pub_completed_ = coordinator_->checkpoints().size();
  }
  pub_cv_.notify_all();
}

void RtRuntime::set_health(Status st) {
  std::scoped_lock lk(pub_mu_);
  pub_health_ = std::move(st);
}

void RtRuntime::add_probe(FtProbe probe) {
  MS_CHECK_MSG(!engine_->running(),
               "RtRuntime: subscribe probes before start()");
  probes_.push_back(std::move(probe));
}

// ---------------------------------------------------------------------------
// ft::Runtime

int RtRuntime::num_units() const { return engine_->num_operators(); }

bool RtRuntime::unit_is_source(int unit) const {
  return engine_->op_is_source(unit);
}

bool RtRuntime::unit_alive(int unit) const {
  (void)unit;
  return engine_->running();
}

SimTime RtRuntime::now() const {
  return SimTime::nanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - epoch0_)
                            .count());
}

void RtRuntime::schedule_after(SimTime delay, std::function<void()> fn) {
  ctl_.after(delay, [this, fence = fence_, fn = std::move(fn)] {
    // A stop() or recover() since: the next start()/recover() re-armed its
    // own chains, and running this one too would double the periodic cadence
    // (and retransmit epochs that no longer exist).
    if (fence == fence_) fn();
  });
}

void RtRuntime::start_epoch(std::uint64_t epoch) {
  EpochState es;
  es.initiated = now();
  es.manifest.epoch = epoch;
  es.manifest.ops.resize(static_cast<std::size_t>(engine_->num_operators()));
  pending_[epoch] = std::move(es);
  if (!crashed_.load()) store_.create_epoch(epoch);
  // Delta unless compaction is due: too many deltas stacked, or the chain
  // has grown past the read-amplification cap relative to its base.
  const bool delta =
      config_.mode == RtMode::kSrcApDelta &&
      store_.delta_allowed(config_.params.delta_compact_every,
                           config_.params.delta_compact_ratio);
  emit_probe(FtPoint::kTokenAlignStart, -1, epoch);
  const rt::SnapshotMode mode = config_.mode == RtMode::kSrc
                                    ? rt::SnapshotMode::kSync
                                    : rt::SnapshotMode::kAsync;
  const Status st = engine_->begin_epoch(
      epoch, mode, delta ? rt::SnapshotKind::kDelta : rt::SnapshotKind::kFull);
  if (!st.is_ok()) {
    MS_LOG_WARN("ft", "rt epoch %llu failed to start: %s",
                static_cast<unsigned long long>(epoch), st.message().c_str());
    coordinator_->on_unit_checkpoint_failed(epoch);  // abandons via hook
  }
}

void RtRuntime::commit_epoch(std::uint64_t epoch) {
  // Called by the coordinator once every unit reported.
  auto it = pending_.find(epoch);
  if (it == pending_.end()) return;
  EpochManifest manifest = std::move(it->second.manifest);
  pending_.erase(it);
  if (crashed_.load()) {  // a dead process commits nothing
    store_.abandon(epoch, /*remove_files=*/false);
    return;
  }
  const Status st = store_.commit(std::move(manifest));
  if (!st.is_ok()) {
    MS_LOG_WARN("ft", "rt epoch %llu: manifest write failed: %s",
                static_cast<unsigned long long>(epoch), st.message().c_str());
    // A crash fault (kCrashAfterRename) may have landed the rename before
    // "dying": a dead process deletes nothing, and the next scan decides
    // whether the epoch committed. Only a live failed write cleans up.
    store_.abandon(epoch, /*remove_files=*/!crashed_.load());
    return;
  }
  // A fallback to any epoch still committed must find every record past its
  // cut, so each log keeps everything from the lowest boundary among them:
  // a head the floor has reached is sealed, and the sealed segments
  // wholly below the floor are unlinked. The sources append meanwhile.
  for (int i = 0; i < num_units(); ++i) {
    if (!unit_is_source(i)) continue;
    const std::uint64_t floor = store_.truncation_floor(i);
    logs_.roll(i, floor);
    if (crashed_.load()) return;  // died mid-seal: nothing is unlinked
    logs_.truncate(i, floor);
  }
}

void RtRuntime::abandon_epoch(std::uint64_t epoch) {
  // Called by the coordinator (wedge or unit failure).
  pending_.erase(epoch);
  store_.abandon(epoch, /*remove_files=*/!crashed_.load());
}

// ---------------------------------------------------------------------------
// Engine hooks

void RtRuntime::on_snapshot(const rt::Snapshot& snap) {
  // A crashed process would never have issued these writes; suppressing them
  // (and the report that follows) is what makes the drill faithful.
  if (crashed_.load()) return;
  const SimTime serialized_at = now();

  emit_probe(FtPoint::kCheckpointWrite, snap.op, snap.epoch);
  // The bytes are written on this worker or helper thread; only the report
  // goes to the control thread, which reads none of the borrowed `data`.
  const bool wrote =
      store_.write_blob(snap.epoch, snap.op, snap.delta, snap.data, snap.size)
          .is_ok();
  const SimTime written_at = now();
  ctl_.post([this, snap, wrote, serialized_at, written_at] {
    on_report(snap, wrote, serialized_at, written_at);
  });
}

void RtRuntime::on_report(const rt::Snapshot& snap, bool wrote,
                          SimTime serialized_at, SimTime written_at) {
  auto it = pending_.find(snap.epoch);
  if (it == pending_.end()) return;  // abandoned or recovered past meanwhile
  if (!wrote) {
    MS_LOG_WARN("ft", "rt epoch %llu: checkpoint write failed for op %d",
                static_cast<unsigned long long>(snap.epoch), snap.op);
    coordinator_->on_unit_checkpoint_failed(snap.epoch);
    return;
  }
  // Just before the report that may commit: a probe here runs before the
  // manifest write.
  emit_probe(FtPoint::kCheckpointDone, snap.op, snap.epoch);
  EpochState& es = it->second;
  // The replay cursors are 0 in a non-source's snapshot.
  es.manifest.ops[static_cast<std::size_t>(snap.op)] = {
      snap.size, engine_->op_is_source(snap.op), snap.delta,
      snap.source_boundary, snap.source_next_seq};
  HauCheckpointReport report;
  report.hau_id = snap.op;
  report.checkpoint_id = snap.epoch;
  report.initiated = es.initiated;
  const auto a_it = es.aligned_at.find(snap.op);
  report.tokens_collected =
      a_it == es.aligned_at.end() ? es.initiated : a_it->second;
  report.serialized = serialized_at;
  report.written = written_at;
  report.declared_bytes = static_cast<Bytes>(snap.size);
  coordinator_->on_unit_report(report);  // may commit the epoch
  publish();
}

void RtRuntime::on_engine_proto(rt::ProtoPoint point, int op,
                                std::uint64_t epoch) {
  switch (point) {
    case rt::ProtoPoint::kTokenArrived:
      emit_probe(FtPoint::kTokenReceived, op, epoch);
      break;
    case rt::ProtoPoint::kAligned: {
      const SimTime at = now();
      ctl_.post([this, op, epoch, at] {
        auto it = pending_.find(epoch);
        if (it != pending_.end()) it->second.aligned_at[op] = at;
      });
      emit_probe(FtPoint::kAlignDone, op, epoch);
      break;
    }
    case rt::ProtoPoint::kSerializeStart:
      emit_probe(FtPoint::kSerializeStart, op, epoch);
      break;
    case rt::ProtoPoint::kSerializeDone:
      // The serialize window closing is the engine analogue of the paper's
      // fork returning: the cut is pinned, the dataflow may proceed.
      emit_probe(FtPoint::kForkDone, op, epoch);
      break;
  }
}

Status RtRuntime::scan_existing_state() {
  // Engine stopped, no epochs pending: safe to rebuild the durable view.
  for (const std::uint64_t e : store_.scan()) {
    m_corrupt_manifests_->add(1);
    emit_probe(FtPoint::kCorruptArtifact, -1, e);
  }
  return scan_logs();
}

Status RtRuntime::scan_logs() {
  const EpochManifest* tip = store_.manifest(store_.tip());
  std::vector<std::uint64_t> boundaries;
  if (tip != nullptr) {
    for (const auto& op : tip->ops) boundaries.push_back(op.boundary);
  }
  return logs_.scan(boundaries);
}

// ---------------------------------------------------------------------------
// Recovery

Status RtRuntime::recover(RecoveryStats* stats) {
  return on_ctl([this, stats] { return recover_now(stats); });
}

Status RtRuntime::recover_now(RecoveryStats* stats) {
  if (engine_->running()) {
    return Status::failed_precondition("RtRuntime: stop the engine first");
  }
  if (crashed_.load()) {
    // Distinct from other preconditions so callers can tell "you forgot
    // clear_crash()" apart from "the engine is still running": the crash
    // drill is an explicit state that must be explicitly lifted.
    return Status::aborted("RtRuntime: crash flag set; clear_crash() first");
  }
  ++fence_;
  const std::uint64_t seq = ++recoveries_;
  coordinator_->abort_in_progress();
  pending_.clear();
  const SimTime t0 = now();
  emit_probe(FtPoint::kRecoveryStart, -1, seq);

  // Phase 1: locate the last complete epoch and the preserved logs. A log
  // the constructor (or a failed earlier attempt) already read and verified
  // is not read again.
  emit_probe(FtPoint::kRecoveryPhase1, -1, seq);
  {
    const Status st = scan_existing_state();
    publish();
    // Replaying without the log's records would silently lose every tuple
    // past the checkpoint boundary. A read error aborts retryably, a log
    // header that does not verify is kDataLoss (same contract as manifests
    // and blobs).
    if (!st.is_ok()) return st;
  }
  if (crashed_.load()) return Status::unavailable("crashed during recovery");

  const int n = engine_->num_operators();
  std::uint64_t epoch = 0;
  LoadedEpoch loaded(static_cast<std::size_t>(n));

  // Phase 2: read and VERIFY the checkpoint bytes. The fallback ladder:
  // try every committed epoch, newest first. Definitive corruption anywhere
  // in a candidate's chain closure (bad CRC, missing blob, broken chain)
  // skips to the next candidate; a transient read error aborts retryably —
  // the bytes may be fine, nothing may be destroyed or skipped over.
  emit_probe(FtPoint::kRecoveryPhase2, -1, seq);
  const SimTime t_read0 = now();
  const std::vector<std::uint64_t> candidates = store_.ladder();
  Status last_err = Status::ok();
  for (const std::uint64_t cand : candidates) {
    LoadedEpoch attempt;
    const Status st = store_.load(cand, n, &attempt);
    if (st.is_ok()) {
      epoch = cand;
      loaded = std::move(attempt);
      break;
    }
    if (st.code() == StatusCode::kUnavailable) return st;  // transient
    if (attempt.corrupt_op >= 0) {
      m_corrupt_artifacts_->add(1);
      emit_probe(FtPoint::kCorruptArtifact, attempt.corrupt_op,
                 attempt.corrupt_epoch);
    }
    MS_LOG_WARN("ft", "rt recovery: epoch %llu failed verification (%s); "
                "falling back",
                static_cast<unsigned long long>(cand),
                st.message().c_str());
    m_fallbacks_->add(1);
    emit_probe(FtPoint::kRecoveryFallback, -1, cand);
    last_err = st;
  }
  if (epoch == 0 && !candidates.empty()) {
    // Nothing on disk passed verification. Leave every byte in place for
    // forensics (msverify points at the exact corrupt files) and hand the
    // caller a typed verdict — never silently recover wrong state.
    return Status::data_loss(
        "RtRuntime: no committed epoch passed verification (" +
        std::to_string(candidates.size()) +
        " candidates tried); last error: " + last_err.message());
  }
  if (!candidates.empty() && epoch != candidates.front()) {
    // Fallback landed below the tip: every newer committed epoch is now
    // proven (directly or transitively) unusable. Remove them so the next
    // scan cannot resurrect a tip recovery just rejected, then set the log
    // cursors from the surviving tip.
    for (const std::uint64_t e : candidates) {
      if (e <= epoch) break;  // descending order
      m_corrupt_artifacts_->add(1);
      store_.remove(e);
    }
    publish();
    const Status st = scan_logs();  // from the cached views
    if (!st.is_ok()) return st;
  }
  const SimTime t_read1 = now();
  if (crashed_.load()) return Status::unavailable("crashed during recovery");

  // Phase 3: install operator state and source cursors.
  emit_probe(FtPoint::kRecoveryPhase3, -1, seq);
  // Replay batches per source, decoded from phase 1's view and reused in
  // phase 4.
  std::vector<std::vector<LogBatch>> replay(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    Status st = engine_->restore_operator(i, loaded.state[idx]);
    if (!st.is_ok()) return st;
    // Layer the op's committed deltas, oldest first, onto the full base.
    for (const auto& d : loaded.deltas[idx]) {
      st = engine_->apply_operator_delta(i, d);
      if (!st.is_ok()) return st;
    }
    emit_probe(FtPoint::kRecoveryChainDone, i, seq);
    if (!engine_->op_is_source(i)) continue;
    st = logs_.replay(i, loaded.boundaries[idx], &replay[idx]);
    if (!st.is_ok()) return st;
    // The restored lineage cursor must clear every preserved tuple so fresh
    // emissions never collide with replayed ids. Records below the boundary
    // were emitted before the cut, so the snapshot's cursors already clear
    // them. A batch (never empty) holds one port's emissions in the order
    // emit() stamped them, so its last tuple carries its highest seq.
    std::uint64_t next_seq = loaded.next_seqs[idx];
    std::uint64_t emitted = loaded.boundaries[idx];
    for (const LogBatch& batch : replay[idx]) {
      next_seq = std::max(next_seq, batch.tuples.back().source_seq + 1);
      emitted += batch.tuples.size();
    }
    st = engine_->set_source_progress(i, next_seq, emitted);
    if (!st.is_ok()) return st;
  }
  if (crashed_.load()) return Status::unavailable("crashed during recovery");

  // Phase 4: re-deliver the preserved suffix, then restart the dataflow.
  // The suffix is enqueued into the stopped engine's worker queues BEFORE
  // the sources re-arm: with a live feed (in-place self-heal) fresh
  // emissions must land strictly behind every replayed tuple or the sink
  // sees them out of order.
  emit_probe(FtPoint::kRecoveryPhase4, -1, seq);
  if (crashed_.load()) return Status::unavailable("crashed during recovery");
  const SimTime t_replay0 = now();
  std::uint64_t replayed = 0;
  for (int i = 0; i < n; ++i) {
    for (LogBatch& batch : replay[static_cast<std::size_t>(i)]) {
      replayed += batch.tuples.size();
      const Status st = engine_->replay_downstream(i, batch.port,
                                                   std::move(batch.tuples));
      if (!st.is_ok()) return st;
    }
  }
  const SimTime t_replay1 = now();
  logs_.drop_views();  // the engine appends from here on
  engine_->start();
  arm_initiation();

  emit_probe(FtPoint::kRecoveryComplete, -1, seq);
  MS_LOG_INFO("ft", "rt recovery %llu complete: epoch %llu, %llu tuples replayed",
              static_cast<unsigned long long>(seq),
              static_cast<unsigned long long>(epoch),
              static_cast<unsigned long long>(replayed));
  if (stats) {
    stats->started = t0;
    stats->completed = now();
    stats->disk_io = t_read1 - t_read0;
    stats->reconnection = t_replay1 - t_replay0;
    stats->other =
        (stats->completed - t0) - stats->disk_io - stats->reconnection;
    stats->haus_recovered = n;
    stats->bytes_read = static_cast<Bytes>(loaded.bytes_read);
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Self-heal (config.auto_recover)
//
// Liveness is published *by the runtime on behalf of the operators*: a
// control-thread tick heartbeats every operator while the process is healthy
// and then scans the detector. simulate_crash() silences the heartbeats —
// exactly the signal a killed process would produce — so the scan escalates
// silence into suspicion and, past the threshold, a failure verdict that
// triggers fenced recovery without any manual recover() call.

Status RtRuntime::health() const {
  {
    std::scoped_lock lk(pub_mu_);
    if (!pub_health_.is_ok()) return pub_health_;
  }
  // A failed append left a tuple downstream that no recovery could replay.
  return logs_.health();
}

void RtRuntime::inject_heartbeat_delay(int op, SimTime delay) {
  MS_CHECK(op >= 0 && op < engine_->num_operators());
  if (!hb_suppress_until_) return;
  hb_suppress_until_[op].store((now() + delay).ns());
}

void RtRuntime::detector_tick() {
  if (engine_->running() && !crashed_.load()) {
    const std::int64_t tn = now().ns();
    for (int i = 0; i < engine_->num_operators(); ++i) {
      if (tn < hb_suppress_until_[i].load()) continue;  // injected delay
      detector_->heartbeat(i);
    }
  }
  const std::vector<int> failed = detector_->scan();
  if (!failed.empty()) {
    // One correlated batch of verdicts = one failure event for the live
    // MTBF estimate feeding the cadence retune (params.cadence_live_mtbf).
    if (cadence_) cadence_->on_failure_event(now());
    for (int unit : failed) coordinator_->on_unit_failed(unit);
    if (!quarantine_verdict()) {
      heal(0);  // a recovery that succeeds re-arms this tick
      return;
    }
  }
  schedule_after(config_.params.heartbeat_period, [this] { detector_tick(); });
}

bool RtRuntime::quarantine_verdict() {
  if (quarantined_) return true;
  // Crash-loop detection: a verdict arriving hot on the heels of the
  // previous successful heal extends the streak; enough of those in a row
  // and resurrecting the runtime is doing more harm than good.
  const SimTime verdict_at = now();
  if (last_heal_completed_ > SimTime::zero() &&
      verdict_at - last_heal_completed_ < config_.params.crash_loop_window) {
    ++crash_streak_;
  } else {
    crash_streak_ = 1;
  }
  if (crash_streak_ < config_.params.crash_loop_threshold) return false;
  quarantined_ = true;
  set_health(Status::unavailable(
      "RtRuntime: crash-loop quarantine (" + std::to_string(crash_streak_) +
      " crashes within " +
      std::to_string(config_.params.crash_loop_window.to_seconds()) +
      "s of a heal); manual recover() required"));
  m_heal_quarantined_->add(1);
  MS_LOG_WARN("ft", "rt self-heal: crash-loop quarantine after %d rapid "
              "crashes", crash_streak_);
  return true;
}

void RtRuntime::heal(int attempt) {
  const int max_attempts = std::max(1, config_.params.self_heal_max_attempts);
  m_heal_attempts_->add(1);
  engine_->stop();
  clear_crash();
  RecoveryStats rs;
  const Status st = recover(&rs);
  if (st.is_ok()) {
    auto_recoveries_.fetch_add(1);
    m_heal_success_->add(1);
    last_heal_completed_ = now();
    set_health(Status::ok());
    MS_LOG_INFO("ft", "rt self-heal: recovered on attempt %d (%.1f ms)",
                attempt + 1, (rs.completed - rs.started).to_seconds() * 1e3);
    return;
  }
  m_heal_failed_->add(1);
  MS_LOG_WARN("ft", "rt self-heal attempt %d/%d failed: %s", attempt + 1,
              max_attempts, st.message().c_str());
  if (attempt + 1 < max_attempts) {
    // Armed past recover()'s fence bump, so only a stop() drops it.
    schedule_after(
        config_.params.self_heal_backoff * (std::int64_t{1} << attempt),
        [this, attempt] { heal(attempt + 1); });
    return;
  }
  m_heal_exhausted_->add(1);
  set_health(Status::unavailable(
      "RtRuntime: self-heal exhausted after " + std::to_string(max_attempts) +
      " attempts; manual recover() required"));
  MS_LOG_WARN("ft", "rt self-heal: giving up after %d attempts", max_attempts);
}

// ---------------------------------------------------------------------------
// AA pipeline (kSrcApAa)

void RtRuntime::aa_sample_tick() {
  const SimTime tnow = now();
  for (int op = 0; op < engine_->num_operators(); ++op) {
    const AaSampler::Events events = samplers_[op].add_sample(
        tnow, static_cast<double>(engine_->op_state_size(op)));
    if (events.turning_point.has_value()) {
      const auto& tp = *events.turning_point;
      aa_->report_turning_point(op, tp.t, tp.size, tp.icr);
    }
    if (events.half_drop) aa_->on_half_drop_notification(op, tnow);
  }
  schedule_after(config_.params.state_sample_period,
                 [this] { aa_sample_tick(); });
}

void RtRuntime::aa_end_observation() {
  for (int op = 0; op < static_cast<int>(samplers_.size()); ++op) {
    const AaSampler::Observation obs = samplers_[op].end_observation();
    aa_->report_observation(op, obs.min, obs.avg);
  }
  aa_->finish_observation(now());
  for (const int op : aa_->dynamic_haus()) {
    samplers_[op].mark_dynamic();
    samplers_[op].set_profiling(true);
  }
}

void RtRuntime::aa_query_dynamic() {
  const SimTime tnow = now();
  for (const int op : aa_->dynamic_haus()) {
    aa_->on_query_response(op, tnow,
                           static_cast<double>(engine_->op_state_size(op)),
                           samplers_[op].current_icr());
  }
}

}  // namespace ms::ft
