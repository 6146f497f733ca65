#include "ft/meteor_shower.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/log.h"

namespace ms::ft {

const char* ms_variant_name(MsVariant v) {
  switch (v) {
    case MsVariant::kSrc: return "MS-src";
    case MsVariant::kSrcAp: return "MS-src+ap";
    case MsVariant::kSrcApAa: return "MS-src+ap+aa";
  }
  return "?";
}

namespace {
storage::RetryPolicy storage_retry(const FtParams& p) {
  storage::RetryPolicy retry;
  retry.max_attempts = p.storage_retry_attempts;
  retry.initial_backoff = p.storage_retry_backoff;
  return retry;
}
}  // namespace

// ---------------------------------------------------------------------------
// MsScheme
// ---------------------------------------------------------------------------

namespace {
// Distinguishes the storage namespaces of scheme instances sharing one
// cluster (multi-tenant deployments): keys must never collide across
// applications.
std::atomic<std::uint64_t> g_scheme_instance_counter{0};
}  // namespace

MsScheme::MsScheme(core::Application* app, const FtParams& params,
                   MsVariant variant)
    : app_(app),
      params_(params),
      variant_(variant),
      rng_(app->seed() ^ 0x3e7e0aULL),
      instance_(++g_scheme_instance_counter),
      aa_(params),
      metrics_(&MetricsRegistry::global()) {
  MS_CHECK(app != nullptr);
  runtime_ = std::make_unique<SimRuntime>(
      app, SimRuntime::Hooks{
               .start_epoch = [this](std::uint64_t id) { start_epoch_fanout(id); },
               .commit_epoch =
                   [this](std::uint64_t id) { commit_epoch_fanout(id); },
               .abandon_epoch = nullptr,
               .retransmit_epoch =
                   [this](std::uint64_t id) { start_epoch_fanout(id); },
           });
  coordinator_ = std::make_unique<CheckpointCoordinator>(runtime_.get(), params_);
  if (params_.adaptive_cadence) {
    cadence_ = std::make_unique<CadenceController>(params_);
    coordinator_->set_cadence(cadence_.get());
  }
  coordinator_->set_probe([this](FtPoint point, int hau, std::uint64_t id) {
    emit_probe(point, hau, id);
  });
  coordinator_->set_blocked_fn([this] { return recovery_in_progress_; });
  FailureDetector::Params dp;
  dp.suspicion_threshold = params_.suspicion_threshold;
  detector_ = std::make_unique<FailureDetector>(
      dp, [this] { return app_->simulation().now(); });
  detector_->set_probe([this](FtPoint point, int unit, std::uint64_t id) {
    emit_probe(point, unit, id);
  });
  aa_.set_hooks(AaController::Hooks{
      .query_dynamic_haus =
          [this] {
            aa_to_dynamic(
                [](MsHauFt& ft, core::Hau& h) { ft.aa_query_state(h); });
          },
      .trigger_checkpoint = [this] { begin_checkpoint(); },
      .set_alert_reporting =
          [this](bool on) {
            aa_to_dynamic([on](MsHauFt& ft, core::Hau&) {
              ft.aa_sampler().set_alert(on);
            });
          },
  });
  aa_.set_stage_hooks(AaController::StageHooks{
      .begin_observation = [this] { aa_begin_observation(); },
      .end_observation = [this] { aa_end_observation(); },
      .end_profiling =
          [this] {
            aa_to_dynamic([](MsHauFt& ft, core::Hau&) {
              ft.aa_sampler().set_profiling(false);
            });
          },
      .blocked = [this] { return recovery_in_progress_; },
  });
  bind_metrics();
}

void MsScheme::bind_metrics() {
  m_recovery_started_ = metrics_->counter("ft.recovery.started");
  m_recovery_completed_ = metrics_->counter("ft.recovery.completed");
  m_recovery_abandoned_slots_ =
      metrics_->counter("ft.recovery.abandoned_slots");
  m_recovery_total_ = metrics_->histogram("ft.recovery.total");
}

void MsScheme::set_metrics(MetricsRegistry* metrics) {
  MS_CHECK(metrics != nullptr);
  metrics_ = metrics;
  bind_metrics();
  coordinator_->set_metrics(metrics);
}

void MsScheme::set_trace(TraceRecorder* trace) {
  MS_CHECK(trace != nullptr);
  tracer_ = std::make_unique<ProbeTracer>(
      trace, [this] { return app_->simulation().now(); });
  add_probe([this](FtPoint point, int hau, std::uint64_t id) {
    tracer_->on(point, hau, id);
  });
  trace->set_track_name(trace_track::kAppPid, trace_track::kControllerTid,
                        "controller");
  for (int i = 0; i < app_->num_haus(); ++i) {
    trace->set_track_name(trace_track::kAppPid, trace_track::hau_tid(i),
                          "hau" + std::to_string(i));
  }
  aa_.set_trace(trace);
}

void MsScheme::attach() {
  fts_.resize(static_cast<std::size_t>(app_->num_haus()), nullptr);
  app_->attach_ft([this](core::Hau& hau) {
    auto ft = std::make_unique<MsHauFt>(this, hau);
    fts_[static_cast<std::size_t>(hau.id())] = ft.get();
    return ft;
  });
}

void MsScheme::start() {
  if (application_aware()) {
    aa_.start(runtime_.get());
  } else if (params_.periodic) {
    coordinator_->schedule_periodic();
  }
  if (detection_enabled_) ping_sources();
}

std::string MsScheme::checkpoint_key(int hau_id, std::uint64_t ckpt_id) const {
  return "ms/" + std::to_string(instance_) + "/ckpt/" +
         std::to_string(hau_id) + "/" + std::to_string(ckpt_id);
}

std::string MsScheme::preserve_key(int hau_id) const {
  return "ms/" + std::to_string(instance_) + "/preserve/" +
         std::to_string(hau_id);
}

void MsScheme::to_controller(const core::Hau& from, Bytes size,
                             std::function<void()> fn) {
  auto& cluster = app_->cluster();
  cluster.network().send(from.node(), cluster.storage_node(), size,
                         net::MsgCategory::kControl, std::move(fn));
}

void MsScheme::to_hau(core::Hau& hau, Bytes size,
                      std::function<void(core::Hau&)> fn) {
  auto& cluster = app_->cluster();
  core::Hau* h = &hau;
  const std::uint64_t inc = h->incarnation();
  cluster.network().send(cluster.storage_node(), h->node(), size,
                         net::MsgCategory::kControl,
                         [h, inc, fn = std::move(fn)] {
                           if (h->incarnation() != inc || h->failed()) return;
                           fn(*h);
                         });
}

void MsScheme::trigger_checkpoint() { begin_checkpoint(); }

void MsScheme::begin_checkpoint() { coordinator_->begin_checkpoint(); }

void MsScheme::start_epoch_fanout(std::uint64_t ckpt_id) {
  // Variant-specific command fan-out. MS-src: sources only (tokens trickle
  // from there); MS-src+ap(+aa): every HAU aligns on 1-hop tokens.
  for (int i = 0; i < app_->num_haus(); ++i) {
    core::Hau& hau = app_->hau(i);
    if (hau.failed()) continue;
    if (synchronous() && !hau.is_source()) continue;
    MsHauFt* ft = fts_[static_cast<std::size_t>(i)];
    to_hau(hau, 64, [ft, ckpt_id](core::Hau& h) {
      ft->on_checkpoint_command(h, ckpt_id);
    });
  }
}

void MsScheme::on_hau_report(const HauCheckpointReport& report) {
  coordinator_->on_unit_report(report);
}

void MsScheme::commit_epoch_fanout(std::uint64_t ckpt_id) {
  // Garbage-collect the previous application checkpoint and let sources
  // truncate their preserved logs before the new boundary.
  for (int i = 0; i < app_->num_haus(); ++i) {
    core::Hau& hau = app_->hau(i);
    if (ckpt_id >= 2) {
      app_->cluster().shared_storage().erase_now(
          checkpoint_key(i, ckpt_id - 1));
    }
    if (hau.is_source() && !hau.failed()) {
      MsHauFt* ft = fts_[static_cast<std::size_t>(i)];
      to_hau(hau, 64, [ft, ckpt_id](core::Hau& h) {
        ft->on_app_checkpoint_complete(h, ckpt_id);
      });
    }
  }
}

void MsScheme::on_hau_checkpoint_failed(std::uint64_t ckpt_id) {
  coordinator_->on_unit_checkpoint_failed(ckpt_id);
}

// ---------------------------------------------------------------------------
// MsHauFt — token alignment and checkpoint execution
// ---------------------------------------------------------------------------

MsHauFt::MsHauFt(MsScheme* scheme, core::Hau& hau) : scheme_(scheme) {
  (void)hau;
}

void MsHauFt::on_start(core::Hau& hau) {
  port_token_.assign(static_cast<std::size_t>(hau.num_in_ports()), false);
  if (hau.is_source()) {
    log_ = std::make_shared<PreserveLog>();
    storage::Object obj;
    obj.declared_size = 0;
    obj.handle = log_;
    hau.app().cluster().shared_storage().register_object(
        scheme_->preserve_key(hau.id()), std::move(obj));
  }
  if (scheme_->application_aware()) {
    hau.schedule(scheme_->params().state_sample_period,
                 [this, &hau] { aa_sample(hau); });
  }
}

void MsHauFt::on_restart(core::Hau& hau) {
  port_token_.assign(static_cast<std::size_t>(hau.num_in_ports()), false);
  tokens_seen_ = 0;
  active_ckpt_id_ = 0;
  align_done_ = false;
  capturing_ = false;
  capture_.clear();
  pending_batch_.clear();
  pending_bytes_ = 0;
  flush_in_flight_ = false;
  flush_timer_armed_ = false;
  has_last_report_ = false;
  aa_sampler_.restart();
  if (scheme_->application_aware()) {
    hau.schedule(scheme_->params().state_sample_period,
                 [this, &hau] { aa_sample(hau); });
  }
}

void MsHauFt::emit(core::Hau& hau, int out_port, core::Tuple tuple) {
  if (hau.is_source() && log_ != nullptr) {
    // Source preservation: the tuple becomes durable in shared storage
    // before it is dispatched downstream (batched appends).
    pending_bytes_ += tuple.wire_size;
    pending_batch_.push_back(PreserveLog::Entry{out_port, std::move(tuple)});
    const auto& p = scheme_->params();
    if (pending_bytes_ >= p.source_batch_bytes) {
      flush_batch(hau);
    } else if (!flush_timer_armed_) {
      flush_timer_armed_ = true;
      hau.schedule(p.source_batch_interval, [this, &hau] {
        flush_timer_armed_ = false;
        flush_batch(hau);
      });
    }
    return;
  }
  // Non-source: dispatch immediately; while an asynchronous checkpoint is
  // aligning, retain a copy of everything sent after our outgoing tokens.
  core::Tuple copy;
  if (capturing_) copy = tuple;
  const std::uint64_t seq = hau.send_downstream(out_port, std::move(tuple));
  if (capturing_ && seq != 0) {
    copy.edge_seq = seq;
    capture_.emplace_back(out_port, std::move(copy));
  }
}

void MsHauFt::flush_batch(core::Hau& hau) {
  if (flush_in_flight_ || pending_batch_.empty() || hau.failed()) return;
  flush_in_flight_ = true;
  auto batch = std::make_shared<std::vector<PreserveLog::Entry>>(
      std::move(pending_batch_));
  pending_batch_.clear();
  Bytes batch_bytes = 0;
  for (const auto& e : *batch) batch_bytes += e.tuple.wire_size;
  pending_bytes_ -= batch_bytes;

  hau.app().cluster().shared_storage().append(
      hau.node(), scheme_->preserve_key(hau.id()), batch_bytes, {},
      [this, &hau, batch, batch_bytes](Status st) {
        flush_in_flight_ = false;
        if (hau.failed()) return;  // batch lost with the node
        if (!st.is_ok()) {
          // The append failed even after retries (e.g. an outage outlasting
          // the backoff window) but the source itself is alive. These tuples
          // were never dispatched, so dropping them would lose data: requeue
          // them at the front and try again after a batch interval.
          MS_LOG_WARN("ft", "preserve append of HAU %d failed (%s): requeued",
                      hau.id(), st.to_string().c_str());
          pending_batch_.insert(pending_batch_.begin(),
                                std::make_move_iterator(batch->begin()),
                                std::make_move_iterator(batch->end()));
          pending_bytes_ += batch_bytes;
          if (!flush_timer_armed_) {
            flush_timer_armed_ = true;
            hau.schedule(scheme_->params().source_batch_interval,
                         [this, &hau] {
                           flush_timer_armed_ = false;
                           flush_batch(hau);
                         });
          }
          return;
        }
        // Durable: dispatch in order and record the stamped copies.
        for (auto& e : *batch) {
          core::Tuple copy = e.tuple;
          const Bytes wire = copy.wire_size;
          const std::uint64_t seq =
              hau.send_downstream(e.out_port, std::move(e.tuple));
          copy.edge_seq = seq;
          log_->entries.push_back(PreserveLog::Entry{e.out_port, std::move(copy)});
          log_->bytes += wire;
        }
        // Keep draining if more accumulated meanwhile.
        if (!pending_batch_.empty()) flush_batch(hau);
      },
      storage_retry(scheme_->params()));
}

std::uint64_t MsHauFt::source_boundary(const core::Hau& hau) const {
  // Entries still queued on the out-edges have not crossed the token yet
  // (tokens jump the queue at sources); they are post-boundary and must be
  // replayed. Over-approximating the undispatched suffix is safe: receiver
  // sequence deduplication drops any replayed tuple that did arrive before
  // the token.
  const std::uint64_t undispatched = hau.pending_out_tuples();
  const std::uint64_t end = log_->end_index();
  return end > undispatched ? end - undispatched : 0;
}

void MsHauFt::handle_command_redelivery(core::Hau& hau,
                                        std::uint64_t ckpt_id) {
  if (!scheme_->synchronous() && active_ckpt_id_ == ckpt_id) {
    // Still aligning/writing this epoch: our 1-hop tokens may have been
    // lost, and downstream cannot align without them. Re-sending is safe —
    // a receiver that already consumed the original pops the duplicate, and
    // a receiver that never saw it gets a later cut, which source replay
    // plus receiver-side sequence dedup make consistent.
    resend_epoch_tokens(hau, ckpt_id, /*one_hop=*/true);
    return;
  }
  if (active_ckpt_id_ == 0 && has_last_report_ &&
      last_report_.checkpoint_id == ckpt_id) {
    // Already checkpointed this epoch: the tokens or the report must have
    // been lost. Re-forward and re-report; the coordinator counts
    // duplicate reports once.
    resend_epoch_tokens(hau, ckpt_id, /*one_hop=*/!scheme_->synchronous());
    scheme_->to_controller(hau, 128,
                           [scheme = scheme_, report = last_report_] {
                             scheme->on_hau_report(report);
                           });
  }
}

void MsHauFt::resend_epoch_tokens(core::Hau& hau, std::uint64_t ckpt_id,
                                  bool one_hop) {
  for (int p = 0; p < hau.num_out_ports(); ++p) {
    hau.send_token(p, core::Token{ckpt_id, one_hop},
                   /*jump_queue=*/one_hop || hau.is_source());
  }
  if (hau.num_out_ports() > 0) {
    scheme_->emit_probe(FtPoint::kTokenSent, hau.id(), ckpt_id);
  }
}

void MsHauFt::on_checkpoint_command(core::Hau& hau, std::uint64_t ckpt_id) {
  if (ckpt_id < next_seen_epoch_) {
    // Stale epoch — or a retransmission of one we already know.
    handle_command_redelivery(hau, ckpt_id);
    return;
  }
  if (active_ckpt_id_ != 0) {
    if (ckpt_id <= active_ckpt_id_) return;
    // The controller moved on (it abandoned our wedged epoch): drop the old
    // alignment. Any tokens of the old epoch still at port heads are popped
    // later by the id-mismatch path.
    for (int port = 0; port < hau.num_in_ports(); ++port) {
      if (port_token_[static_cast<std::size_t>(port)]) {
        hau.pop_token(port);
        hau.unblock_port(port);
        port_token_[static_cast<std::size_t>(port)] = false;
      }
    }
    tokens_seen_ = 0;
    capturing_ = false;
    capture_.clear();
  }
  next_seen_epoch_ = ckpt_id + 1;
  active_ckpt_id_ = ckpt_id;
  align_done_ = false;
  initiated_at_ = hau.app().simulation().now();
  tokens_seen_ = 0;
  port_token_.assign(static_cast<std::size_t>(hau.num_in_ports()), false);
  scheme_->emit_probe(FtPoint::kTokenAlignStart, hau.id(), ckpt_id);

  if (scheme_->synchronous()) {
    // MS-src: only sources receive the command; checkpoint synchronously,
    // then trickle tokens downstream.
    MS_CHECK(hau.is_source());
    do_sync_checkpoint(hau);
    return;
  }
  // MS-src+ap: emit 1-hop tokens to every downstream neighbour immediately,
  // at the HEAD of the output queues (paper Fig. 8). For non-sources,
  // everything still queued becomes post-boundary and is captured with the
  // checkpoint; for sources the replay boundary backs up over the
  // undispatched suffix of the preserved log.
  if (log_ != nullptr) boundary_at_command_ = source_boundary(hau);
  for (int p = 0; p < hau.num_out_ports(); ++p) {
    hau.send_token(p, core::Token{ckpt_id, /*one_hop=*/true},
                   /*jump_queue=*/true);
  }
  if (hau.num_out_ports() > 0) {
    scheme_->emit_probe(FtPoint::kTokenSent, hau.id(), ckpt_id);
  }
  if (hau.num_in_ports() == 0) {
    do_async_checkpoint(hau);
  } else {
    capturing_ = true;
  }
}

void MsHauFt::on_token_at_head(core::Hau& hau, int in_port,
                               const core::Token& token) {
  if (active_ckpt_id_ == 0) {
    if (scheme_->synchronous() && token.checkpoint_id >= next_seen_epoch_) {
      // First token of a trickling checkpoint reaching this HAU.
      active_ckpt_id_ = token.checkpoint_id;
      next_seen_epoch_ = token.checkpoint_id + 1;
      align_done_ = false;
      initiated_at_ = hau.app().simulation().now();
      tokens_seen_ = 0;
      port_token_.assign(static_cast<std::size_t>(hau.num_in_ports()), false);
      scheme_->emit_probe(FtPoint::kTokenAlignStart, hau.id(),
                          active_ckpt_id_);
    } else if (!scheme_->synchronous() && token.one_hop &&
               token.checkpoint_id >= next_seen_epoch_) {
      // Chandy-Lamport rule: a neighbour's token outran the controller's
      // command (they race over different paths). Initiate the epoch now;
      // the late command becomes a no-op.
      on_checkpoint_command(hau, token.checkpoint_id);
    }
  }
  if (token.checkpoint_id != active_ckpt_id_) {
    // Token from an aborted epoch, or a duplicate of one this HAU already
    // finished (upstream re-forwarded after a controller retransmission):
    // drop it. For MS-src a duplicate of our last completed epoch also
    // repairs the chain below us — the original trickling token may have
    // been the copy that was lost.
    hau.pop_token(in_port);
    if (scheme_->synchronous() && active_ckpt_id_ == 0 && has_last_report_ &&
        token.checkpoint_id == last_report_.checkpoint_id) {
      handle_command_redelivery(hau, token.checkpoint_id);
    }
    return;
  }
  if (align_done_ || port_token_[static_cast<std::size_t>(in_port)]) {
    // Duplicate token for the active epoch: either this port already
    // contributed its cut, or alignment finished and the write is in
    // flight. Drop the extra copy.
    hau.pop_token(in_port);
    return;
  }
  port_token_[static_cast<std::size_t>(in_port)] = true;
  ++tokens_seen_;
  scheme_->emit_probe(FtPoint::kTokenReceived, hau.id(), active_ckpt_id_);
  hau.block_port(in_port);
  maybe_align(hau);
}

void MsHauFt::maybe_align(core::Hau& hau) {
  if (tokens_seen_ < hau.num_in_ports()) return;
  if (scheme_->synchronous()) {
    do_sync_checkpoint(hau);
  } else {
    do_async_checkpoint(hau);
  }
}

void MsHauFt::do_sync_checkpoint(core::Hau& hau) {
  const auto& p = scheme_->params();
  HauCheckpointReport report;
  report.hau_id = hau.id();
  report.checkpoint_id = active_ckpt_id_;
  report.initiated = initiated_at_;
  report.tokens_collected = hau.app().simulation().now();
  scheme_->emit_probe(FtPoint::kAlignDone, hau.id(), active_ckpt_id_);
  align_done_ = true;

  hau.pause();
  // Consume the aligned tokens; the ports stay quiet while paused.
  for (int port = 0; port < hau.num_in_ports(); ++port) {
    if (port_token_[static_cast<std::size_t>(port)]) {
      hau.pop_token(port);
      hau.unblock_port(port);
      port_token_[static_cast<std::size_t>(port)] = false;
    }
  }
  tokens_seen_ = 0;

  const Bytes state = hau.state_size();
  const SimTime serialize_cost =
      SimTime::seconds(static_cast<double>(state) / p.serialize_bandwidth);
  scheme_->emit_probe(FtPoint::kSerializeStart, hau.id(), active_ckpt_id_);
  hau.run_on_cpu(serialize_cost, [this, &hau, report]() mutable {
    auto image = std::make_shared<core::CheckpointImage>(
        hau.capture_state({}, report.checkpoint_id));
    if (log_ != nullptr) {
      image->preserve_boundary = source_boundary(hau);
      boundaries_[report.checkpoint_id] = image->preserve_boundary;
    }
    report.serialized = hau.app().simulation().now();
    report.declared_bytes = image->total_declared();
    write_checkpoint(hau, std::move(image), report, /*forward_tokens=*/true);
  });
}

void MsHauFt::do_async_checkpoint(core::Hau& hau) {
  const auto& p = scheme_->params();
  HauCheckpointReport report;
  report.hau_id = hau.id();
  report.checkpoint_id = active_ckpt_id_;
  report.initiated = initiated_at_;
  report.tokens_collected = hau.app().simulation().now();
  scheme_->emit_probe(FtPoint::kAlignDone, hau.id(), active_ckpt_id_);
  align_done_ = true;

  // Fork the checkpoint helper: the parent is blocked only for the fork.
  scheme_->emit_probe(FtPoint::kForkStart, hau.id(), active_ckpt_id_);
  hau.pause();
  hau.run_on_cpu(p.fork_cost, [this, &hau, report]() mutable {
    // The in-flight set: tuples dispatched since our outgoing tokens plus
    // everything still queued behind them on the output edges.
    std::vector<std::pair<int, core::Tuple>> inflight = std::move(capture_);
    if (log_ == nullptr) {
      for (auto& [port, tuple] : hau.pending_behind_tokens()) {
        inflight.emplace_back(port, std::move(tuple));
      }
    }
    auto image = std::make_shared<core::CheckpointImage>(
        hau.capture_state(std::move(inflight), report.checkpoint_id));
    capture_.clear();
    capturing_ = false;
    if (log_ != nullptr) {
      image->preserve_boundary = boundary_at_command_;
      boundaries_[report.checkpoint_id] = image->preserve_boundary;
    }
    // Erase the 1-hop tokens and return to normal execution under the
    // copy-on-write tax while the child drains.
    for (int port = 0; port < hau.num_in_ports(); ++port) {
      if (port_token_[static_cast<std::size_t>(port)]) {
        hau.pop_token(port);
        hau.unblock_port(port);
        port_token_[static_cast<std::size_t>(port)] = false;
      }
    }
    tokens_seen_ = 0;
    hau.resume();
    scheme_->emit_probe(FtPoint::kForkDone, hau.id(), report.checkpoint_id);
    hau.set_cost_multiplier(1.0 + scheme_->params().cow_tax);

    // Child process: serialize the frozen snapshot, then write it out.
    const SimTime serialize_cost = SimTime::seconds(
        static_cast<double>(image->total_declared()) /
        scheme_->params().serialize_bandwidth);
    scheme_->emit_probe(FtPoint::kSerializeStart, hau.id(),
                        report.checkpoint_id);
    hau.run_on_cpu(serialize_cost, [this, &hau, image, report]() mutable {
      hau.set_cost_multiplier(1.0);
      report.serialized = hau.app().simulation().now();
      report.declared_bytes = image->total_declared();
      write_checkpoint(hau, image, report, /*forward_tokens=*/false);
    });
  });
}

void MsHauFt::write_checkpoint(core::Hau& hau,
                               std::shared_ptr<core::CheckpointImage> image,
                               HauCheckpointReport report,
                               bool forward_tokens) {
  const std::string key =
      scheme_->checkpoint_key(hau.id(), report.checkpoint_id);
  storage::Object obj;
  obj.declared_size = image->total_declared();
  if (scheme_->params().delta_checkpoints) {
    // Write only the changed state (plus the image's fixed parts); recovery
    // reconstructs from base + deltas, so reads still cost the full state.
    const Bytes delta = hau.op().state_delta_size() +
                        (image->total_declared() - image->declared_state_size);
    obj.read_charge = image->total_declared();
    obj.declared_size = std::min(obj.declared_size, delta);
    report.declared_bytes = obj.declared_size;
  }
  obj.handle = image;
  auto& cluster = hau.app().cluster();
  const bool save_local = scheme_->params().save_local_copy;
  if (save_local) {
    storage::Object local = obj;
    cluster.node(hau.node()).local_store->put(key, std::move(local), [] {});
  }
  scheme_->emit_probe(FtPoint::kCheckpointWrite, hau.id(),
                      report.checkpoint_id);
  cluster.shared_storage().put(
      hau.node(), key, std::move(obj),
      [this, &hau, report, forward_tokens](Status st) mutable {
        active_ckpt_id_ = 0;
        if (!st.is_ok()) {
          MS_LOG_WARN("ft", "MS checkpoint of HAU %d failed: %s", hau.id(),
                      st.to_string().c_str());
          if (hau.failed()) return;
          if (forward_tokens) hau.resume();
          // Tell the controller the epoch cannot complete, so the next
          // periodic checkpoint is not blocked until wedge-abandonment.
          const std::uint64_t id = report.checkpoint_id;
          scheme_->to_controller(hau, 64, [scheme = scheme_, id] {
            scheme->on_hau_checkpoint_failed(id);
          });
          return;
        }
        scheme_->emit_probe(FtPoint::kCheckpointDone, hau.id(),
                            report.checkpoint_id);
        report.written = hau.app().simulation().now();
        // Keep the report: a retransmitted command (or duplicate trickling
        // token) for this epoch re-sends it instead of checkpointing again.
        last_report_ = report;
        has_last_report_ = true;
        if (scheme_->params().delta_checkpoints) hau.op().mark_checkpointed();
        if (forward_tokens) {
          // MS-src: forward the trickling token, then resume processing.
          // Source tokens jump their (possibly unbounded) ingest backlog —
          // the replay boundary already backed up over it; non-source
          // tokens queue behind the pre-checkpoint output, which downstream
          // must process before its own checkpoint.
          for (int p = 0; p < hau.num_out_ports(); ++p) {
            hau.send_token(p, core::Token{report.checkpoint_id,
                                          /*one_hop=*/false},
                           /*jump_queue=*/hau.is_source());
          }
          if (hau.num_out_ports() > 0) {
            scheme_->emit_probe(FtPoint::kTokenSent, hau.id(),
                                report.checkpoint_id);
          }
          hau.resume();
        }
        scheme_->to_controller(hau, 128, [scheme = scheme_, report] {
          scheme->on_hau_report(report);
        });
      },
      storage_retry(scheme_->params()));
}

void MsHauFt::on_app_checkpoint_complete(core::Hau& hau,
                                         std::uint64_t ckpt_id) {
  const auto it = boundaries_.find(ckpt_id);
  if (it == boundaries_.end() || log_ == nullptr) return;
  const std::uint64_t boundary = it->second;
  while (log_->start_index < boundary && !log_->entries.empty()) {
    log_->bytes -= log_->entries.front().tuple.wire_size;
    log_->entries.erase(log_->entries.begin());
    ++log_->start_index;
  }
  boundaries_.erase(boundaries_.begin(), it);
  // Metadata truncation of the stored log object.
  hau.app().cluster().shared_storage().resize(scheme_->preserve_key(hau.id()),
                                              log_->bytes);
}

void MsHauFt::after_process(core::Hau& hau, int in_port,
                            const core::Tuple& tuple) {
  (void)hau;
  (void)in_port;
  (void)tuple;
}

void MsHauFt::replay_from(core::Hau& hau, std::uint64_t boundary) {
  MS_CHECK(log_ != nullptr);
  if (!log_->entries.empty()) {
    hau.ensure_source_seq_at_least(log_->entries.back().tuple.source_seq + 1);
  }
  Bytes tail_bytes = 0;
  for (const auto& e : log_->entries) {
    const std::uint64_t idx =
        log_->start_index + (&e - log_->entries.data());
    if (idx >= boundary) tail_bytes += e.tuple.wire_size;
  }
  if (log_->entries.empty() || boundary >= log_->end_index()) return;
  // Read the tail of the preserved log from shared storage, then resend.
  hau.app().cluster().shared_storage().get_range(
      hau.node(), scheme_->preserve_key(hau.id()), tail_bytes,
      [this, &hau, boundary](Result<storage::Object> r) {
        if (!r.is_ok() || hau.failed()) return;
        for (std::size_t i = 0; i < log_->entries.size(); ++i) {
          const std::uint64_t idx = log_->start_index + i;
          if (idx < boundary) continue;
          const auto& e = log_->entries[i];
          hau.resend_downstream(e.out_port, e.tuple);
        }
      },
      storage_retry(scheme_->params()));
}

void MsHauFt::resend_inflight(
    core::Hau& hau, std::vector<std::pair<int, core::Tuple>> inflight) {
  for (auto& [port, tuple] : inflight) {
    hau.resend_downstream(port, std::move(tuple));
  }
}

// ---------------------------------------------------------------------------
// MsHauFt — application-aware sampling
// ---------------------------------------------------------------------------

void MsHauFt::aa_end_observation(core::Hau& hau) {
  const AaSampler::Observation obs = aa_sampler_.end_observation();
  const int id = hau.id();
  scheme_->to_controller(hau, 96, [scheme = scheme_, id, obs] {
    scheme->aa().report_observation(id, obs.min, obs.avg);
    scheme->aa_observation_report_received();
  });
}

void MsHauFt::aa_query_state(core::Hau& hau) {
  const int id = hau.id();
  const double size = static_cast<double>(hau.state_size());
  const double icr = aa_sampler_.current_icr();
  scheme_->to_controller(hau, 96, [scheme = scheme_, id, size, icr] {
    scheme->aa().on_query_response(id, scheme->app().simulation().now(), size,
                                   icr);
  });
}

void MsHauFt::aa_sample(core::Hau& hau) {
  if (hau.failed()) return;
  const AaSampler::Events events = aa_sampler_.add_sample(
      hau.app().simulation().now(), static_cast<double>(hau.state_size()));
  const int id = hau.id();
  if (events.turning_point.has_value()) {
    const auto point = *events.turning_point;
    scheme_->to_controller(hau, 96, [scheme = scheme_, id, point] {
      scheme->aa().report_turning_point(id, point.t, point.size, point.icr);
    });
  }
  if (events.half_drop) {
    scheme_->to_controller(hau, 64, [scheme = scheme_, id] {
      scheme->aa().on_half_drop_notification(id,
                                             scheme->app().simulation().now());
    });
  }
  hau.schedule(scheme_->params().state_sample_period,
               [this, &hau] { aa_sample(hau); });
}

// ---------------------------------------------------------------------------
// MsScheme — AA pipeline plumbing (the stage timeline is AaController's)
// ---------------------------------------------------------------------------

void MsScheme::aa_begin_observation() {
  aa_obs_reports_ = 0;
  aa_obs_expected_ = app_->num_haus();
  aa_obs_closed_ = false;
  for (int i = 0; i < app_->num_haus(); ++i) {
    MsHauFt* ft = fts_[static_cast<std::size_t>(i)];
    to_hau(app_->hau(i), 64,
           [ft](core::Hau&) { ft->aa_sampler().begin_observation(); });
  }
}

void MsScheme::aa_end_observation() {
  // Collect (min, avg). Only HAUs alive at send time can ever report —
  // counting on all of them would wedge the pipeline forever after a single
  // failure — and a timeout closes the phase even if a counted HAU dies
  // between the command and its report.
  int live = 0;
  for (int i = 0; i < app_->num_haus(); ++i) {
    core::Hau& hau = app_->hau(i);
    if (hau.failed()) continue;
    ++live;
    MsHauFt* ft = fts_[static_cast<std::size_t>(i)];
    to_hau(hau, 64, [ft](core::Hau& h) { ft->aa_end_observation(h); });
  }
  aa_obs_expected_ = live;
  if (aa_obs_reports_ >= aa_obs_expected_) {
    aa_finish_observation();
    return;
  }
  app_->simulation().schedule_after(params_.aa_observation_timeout, [this] {
    if (aa_obs_closed_) return;
    MS_LOG_WARN("ft", "AA observation closed by timeout: %d of %d reports",
                aa_obs_reports_, aa_obs_expected_);
    aa_finish_observation();
  });
}

void MsScheme::aa_observation_report_received() {
  ++aa_obs_reports_;
  if (!aa_obs_closed_ && aa_obs_reports_ >= aa_obs_expected_) {
    aa_finish_observation();
  }
}

void MsScheme::aa_finish_observation() {
  if (aa_obs_closed_) return;
  aa_obs_closed_ = true;
  aa_.finish_observation(app_->simulation().now());
  for (const int i : aa_.dynamic_haus()) {
    if (app_->hau(i).failed()) continue;
    fts_[static_cast<std::size_t>(i)]->aa_sampler().mark_dynamic();
  }
  aa_to_dynamic(
      [](MsHauFt& ft, core::Hau&) { ft.aa_sampler().set_profiling(true); });
}

void MsScheme::aa_to_dynamic(std::function<void(MsHauFt&, core::Hau&)> fn) {
  for (const int i : aa_.dynamic_haus()) {
    core::Hau& hau = app_->hau(i);
    if (hau.failed()) continue;
    MsHauFt* ft = fts_[static_cast<std::size_t>(i)];
    to_hau(hau, 64, [ft, fn](core::Hau& h) { fn(*ft, h); });
  }
}

// ---------------------------------------------------------------------------
// MsScheme — failure detection and whole-application recovery
// ---------------------------------------------------------------------------

void MsScheme::enable_failure_detection(std::vector<net::NodeId> spares) {
  spares_ = std::move(spares);
  detection_enabled_ = true;
}

void MsScheme::add_spares(std::vector<net::NodeId> spares) {
  spares_.insert(spares_.end(), spares.begin(), spares.end());
}

void MsScheme::set_heartbeat_delay(net::NodeId node, SimTime delay,
                                   SimTime until) {
  hb_delays_[node] = HbDelay{delay, until};
}

void MsScheme::send_ping(net::NodeId from, net::NodeId target) {
  // Request/reply liveness probe. The pong is routed to the controller and
  // lands in the shared detector as a heartbeat; a reply deadline one ping
  // period after the request counts a miss if no heartbeat (from any
  // monitor's ping) arrived meanwhile. Dropped pings, dropped pongs and
  // slow pongs all fall out of the same deadline — no separate drop
  // callback, so an unreliable network cannot double-count.
  if (!detection_enabled_) return;
  auto& sim = app_->simulation();
  const SimTime sent = sim.now();
  app_->cluster().network().send(
      from, target, 64, net::MsgCategory::kControl, [this, target] {
        // At the target: reply, optionally delayed by an injected
        // slow-node fault (the node is alive, just late).
        SimTime extra = SimTime::zero();
        const auto it = hb_delays_.find(target);
        if (it != hb_delays_.end()) {
          if (app_->simulation().now() < it->second.until) {
            extra = it->second.delay;
          } else {
            hb_delays_.erase(it);
          }
        }
        auto pong = [this, target] {
          auto& cl = app_->cluster();
          cl.network().send(target, cl.storage_node(), 64,
                            net::MsgCategory::kControl,
                            [this, target] { on_node_heartbeat(target); });
        };
        if (extra > SimTime::zero()) {
          app_->simulation().schedule_after(extra, std::move(pong));
        } else {
          pong();
        }
      });
  sim.schedule_after(params_.ping_period, [this, target, sent] {
    if (!detection_enabled_) return;
    if (detector_->last_heartbeat(target) >= sent) return;  // answered
    on_node_miss(target);
  });
}

void MsScheme::on_node_heartbeat(net::NodeId node) {
  if (!detection_enabled_) return;
  detector_->heartbeat(node);
}

void MsScheme::on_node_miss(net::NodeId node) {
  if (!detection_enabled_) return;
  if (!detector_->miss(node)) {
    if (detector_->state(node) == FailureDetector::UnitState::kFailed) {
      // Already under a verdict — e.g. an earlier pass left this node's HAU
      // unplaced for lack of spares. Keep nudging the recovery path so a
      // replenished pool (add_spares) finishes the job.
      report_node_failure(node);
    }
    return;
  }
  // Failure verdict. Epochs wedged on this node's HAUs will never complete:
  // abandon them now rather than waiting out the stale window in silence.
  // The verdict also feeds the cadence controller's live MTBF estimate
  // (params.cadence_live_mtbf): one node verdict = one failure event.
  if (cadence_) cadence_->on_failure_event(app_->simulation().now());
  for (int i = 0; i < app_->num_haus(); ++i) {
    if (app_->hau(i).node() == node) coordinator_->on_unit_failed(i);
  }
  report_node_failure(node);
}

void MsScheme::monitor_downstream(int hau_id) {
  // The paper's division of labour: the controller pings only the source
  // nodes; every other node is monitored by its upstream neighbours. All
  // monitors feed the same per-node detector, so extra coverage only
  // sharpens detection.
  if (!detection_enabled_) return;
  core::Hau& hau = app_->hau(hau_id);
  if (!hau.failed()) {
    for (int p = 0; p < hau.num_out_ports(); ++p) {
      send_ping(hau.node(), hau.downstream(p)->node());
    }
  }
  app_->simulation().schedule_after(
      params_.ping_period, [this, hau_id] { monitor_downstream(hau_id); });
}

void MsScheme::ping_sources() {
  if (!detection_enabled_) return;
  if (!monitors_started_) {
    monitors_started_ = true;
    for (int i = 0; i < app_->num_haus(); ++i) {
      if (app_->hau(i).num_out_ports() > 0) monitor_downstream(i);
    }
  }
  for (core::Hau* src : app_->sources()) {
    send_ping(app_->cluster().storage_node(), src->node());
  }
  app_->simulation().schedule_after(params_.ping_period,
                                    [this] { ping_sources(); });
}

void MsScheme::report_node_failure(net::NodeId node) {
  (void)node;
  if (!detection_enabled_) return;
  if (recovery_in_progress_) {
    // A failure reported while recovering (a second burst): queue a
    // re-entrant pass instead of dropping the report. The in-flight run's
    // watchdog abandons any participant the new failure took down, and
    // complete_recovery() starts the follow-up pass.
    pending_recovery_recheck_ = true;
    return;
  }
  maybe_recover_failed();
}

void MsScheme::maybe_recover_failed() {
  if (!detection_enabled_) return;
  if (recovery_in_progress_) {
    pending_recovery_recheck_ = true;
    return;
  }
  // Scan the application for dead nodes (the monitoring fabric's view).
  bool any_failed = false;
  for (int i = 0; i < app_->num_haus(); ++i) {
    core::Hau& hau = app_->hau(i);
    if (!app_->cluster().node_alive(hau.node())) {
      if (!hau.failed()) hau.on_node_failed();
    } else if (detector_->state(hau.node()) ==
               FailureDetector::UnitState::kFailed) {
      // The detector issued a verdict for a node that is actually alive (a
      // partition or extreme loss starved its pongs). Reconcile with ground
      // truth so the verdict doesn't mask a later real failure.
      detector_->reset(hau.node());
    }
    if (hau.failed()) any_failed = true;
  }
  if (!any_failed) return;
  // Dead spares are useless as replacements; drop them from the pool.
  std::erase_if(spares_, [this](net::NodeId n) {
    return !app_->cluster().node_alive(n);
  });
  // One replacement per failed HAU whose own node stayed dead; an HAU whose
  // node came back restarts in place and needs no spare. If the pool runs
  // dry mid-allocation, recover what we can — recover_application leaves
  // the rest failed and reports kResourceExhausted, and the next detection
  // report (or add_spares) retries.
  std::vector<net::NodeId> replacements;
  for (int i = 0; i < app_->num_haus(); ++i) {
    core::Hau& hau = app_->hau(i);
    if (!hau.failed()) continue;
    if (app_->cluster().node_alive(hau.node())) continue;
    if (spares_.empty()) break;
    replacements.push_back(spares_.back());
    spares_.pop_back();
  }
  last_recovery_error_ = recover_application(std::move(replacements), nullptr);
  if (!last_recovery_error_.is_ok()) {
    MS_LOG_WARN("ft", "recovery degraded: %s",
                last_recovery_error_.to_string().c_str());
  }
}

Status MsScheme::recover_application(std::vector<net::NodeId> replacements,
                                     std::function<void(RecoveryStats)> done) {
  if (recovery_in_progress_) {
    pending_recovery_recheck_ = true;
    return Status::failed_precondition(
        "recovery already in progress; re-entrant pass queued");
  }
  auto& sim = app_->simulation();
  const int n = app_->num_haus();

  auto run = std::make_shared<RecoveryRun>();
  run->id = ++recovery_seq_;
  run->stats = std::make_shared<RecoveryStats>();
  run->stats->started = sim.now();
  run->per_hau.resize(static_cast<std::size_t>(n));
  run->inflights.resize(static_cast<std::size_t>(n));
  run->boundaries.assign(static_cast<std::size_t>(n), 0);
  run->incarnations.assign(static_cast<std::size_t>(n), 0);
  run->participating.assign(static_cast<std::size_t>(n), false);
  run->chain_done.assign(static_cast<std::size_t>(n), false);
  run->acked.assign(static_cast<std::size_t>(n), false);
  run->abandoned.assign(static_cast<std::size_t>(n), false);
  run->done = std::move(done);
  const std::uint64_t ckpt = coordinator_->last_completed();

  // Placement: failed HAUs restart on their own node if it came back, else
  // on the next live replacement. With no placeable failed HAU at all the
  // pass would only churn the survivors, so refuse it outright.
  int unplaced = 0;
  int placed = 0;
  std::size_t next_replacement = 0;
  auto pick_replacement = [&]() -> std::optional<net::NodeId> {
    while (next_replacement < replacements.size() &&
           !app_->cluster().node_alive(replacements[next_replacement])) {
      ++next_replacement;
    }
    if (next_replacement >= replacements.size()) return std::nullopt;
    return replacements[next_replacement++];
  };
  std::vector<std::optional<net::NodeId>> targets(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::Hau& hau = app_->hau(i);
    if (!hau.failed()) continue;
    if (app_->cluster().node_alive(hau.node())) {
      targets[static_cast<std::size_t>(i)] = hau.node();
      ++placed;
    } else if (auto t = pick_replacement()) {
      targets[static_cast<std::size_t>(i)] = *t;
      ++placed;
    } else {
      ++unplaced;
    }
  }
  bool any_failed = placed + unplaced > 0;
  if (any_failed && placed == 0) {
    pending_recovery_recheck_ = true;
    return Status::resource_exhausted(
        "spare node pool exhausted: no failed HAU can be placed");
  }

  recovery_in_progress_ = true;
  coordinator_->abort_in_progress();  // abort any checkpoint in flight
  m_recovery_started_->add(1);
  emit_probe(FtPoint::kRecoveryStart, -1, run->id);

  // Roll every HAU back; failed ones restart on their placement target.
  for (int i = 0; i < n; ++i) {
    core::Hau& hau = app_->hau(i);
    auto& ph = run->per_hau[static_cast<std::size_t>(i)];
    if (hau.failed()) {
      const auto target = targets[static_cast<std::size_t>(i)];
      if (!target.has_value()) continue;  // left failed for a later pass
      ph.moved = (*target != hau.node());
      hau.restart_on(*target);
      run->stats->haus_recovered++;
    } else {
      // Alive HAU: roll back in place (drop buffers and in-flight work).
      hau.on_node_failed();
      hau.restart_on(hau.node());
      ph.moved = false;
    }
    run->participating[static_cast<std::size_t>(i)] = true;
    run->incarnations[static_cast<std::size_t>(i)] = hau.incarnation();
    ++run->chains_remaining;
  }

  recovery_run_ = run;
  for (int i = 0; i < n; ++i) {
    if (run->participating[static_cast<std::size_t>(i)]) {
      start_recovery_chain(run, i, ckpt);
    }
  }
  sim.schedule_after(params_.recovery_watchdog_period,
                     [this, run] { recovery_watchdog(run); });

  if (unplaced > 0) {
    pending_recovery_recheck_ = true;
    return Status::resource_exhausted(
        "spare node pool exhausted: " + std::to_string(unplaced) +
        " HAU(s) left failed until spares return");
  }
  return Status::ok();
}

void MsScheme::start_recovery_chain(const std::shared_ptr<RecoveryRun>& run,
                                    int i, std::uint64_t ckpt) {
  core::Hau& hau = app_->hau(i);
  auto& sim = app_->simulation();
  auto& ph = run->per_hau[static_cast<std::size_t>(i)];
  const SimTime phase_start = sim.now();
  const SimTime reload =
      ph.moved ? params_.operator_reload_cost : SimTime::millis(5);
  // Phase 1: reload operators. run_on_cpu's incarnation guard orphans the
  // continuation if the HAU dies meanwhile; the watchdog then abandons the
  // chain so the barrier still closes.
  emit_probe(FtPoint::kRecoveryPhase1, i, run->id);
  hau.run_on_cpu(reload, [this, &hau, run, ckpt, phase_start, i]() mutable {
    auto& sim = app_->simulation();
    auto& ph = run->per_hau[static_cast<std::size_t>(i)];
    ph.phase13 = sim.now() - phase_start;

    // Storage callbacks are NOT incarnation-guarded, so every continuation
    // below re-checks that this incarnation of the HAU is still alive
    // before touching its CPU (run_on_cpu aborts on a failed HAU).
    const std::uint64_t inc = run->incarnations[static_cast<std::size_t>(i)];
    auto gone = [this, run, i, inc, &hau] {
      return hau.failed() || hau.incarnation() != inc ||
             run->abandoned[static_cast<std::size_t>(i)];
    };

    auto after_read = [this, &hau, run, i,
                       gone](Result<storage::Object> r) mutable {
      if (gone()) {
        abandon_recovery_slot(run, i);
        return;
      }
      auto& sim = app_->simulation();
      const SimTime phase3_start = sim.now();
      std::shared_ptr<const core::CheckpointImage> image;
      Bytes declared = 0;
      if (r.is_ok()) {
        image = r.value().handle_as<core::CheckpointImage>();
        // Delta checkpoints write little but read the full reconstruction.
        declared = r.value().read_charge > 0 ? r.value().read_charge
                                             : r.value().declared_size;
        run->stats->bytes_read += declared;
      }
      const SimTime deser = SimTime::seconds(static_cast<double>(declared) /
                                             params_.deserialize_bandwidth);
      emit_probe(FtPoint::kRecoveryPhase3, i, run->id);
      hau.run_on_cpu(deser, [this, &hau, run, i, image,
                             phase3_start]() mutable {
        auto& sim = app_->simulation();
        auto& ph = run->per_hau[static_cast<std::size_t>(i)];
        ph.phase13 += sim.now() - phase3_start;
        if (image != nullptr) {
          run->inflights[static_cast<std::size_t>(i)] =
              hau.restore_state(*image);
          run->boundaries[static_cast<std::size_t>(i)] =
              image->preserve_boundary;
        } else {
          // No completed checkpoint yet: restart from the initial state.
          hau.op().clear_state();
          run->boundaries[static_cast<std::size_t>(i)] = 0;
        }
        ph.ready_at = sim.now();
        recovery_chain_done(run, i);
      });
    };

    if (ckpt == 0) {
      // Nothing checkpointed yet; restore initial state directly.
      after_read(Status::not_found("no completed checkpoint"));
      return;
    }
    const std::string key = checkpoint_key(i, ckpt);
    auto& cluster = app_->cluster();
    const SimTime phase2_start = sim.now();
    emit_probe(FtPoint::kRecoveryPhase2, i, run->id);
    auto read_done = [after_read = std::move(after_read), run, i, phase2_start,
                      this](Result<storage::Object> r) mutable {
      run->per_hau[static_cast<std::size_t>(i)].phase2 =
          app_->simulation().now() - phase2_start;
      after_read(std::move(r));
    };
    // Local-disk first when the HAU stayed on its node; shared storage
    // otherwise (the paper's recovery path).
    if (!ph.moved && cluster.node(hau.node()).local_store->contains(key)) {
      cluster.node(hau.node()).local_store->get(key, std::move(read_done));
    } else {
      cluster.shared_storage().get(hau.node(), key, std::move(read_done),
                                   storage_retry(params_));
    }
  });
}

void MsScheme::recovery_chain_done(const std::shared_ptr<RecoveryRun>& run,
                                   int i) {
  if (run->chain_done[static_cast<std::size_t>(i)]) return;
  run->chain_done[static_cast<std::size_t>(i)] = true;
  emit_probe(FtPoint::kRecoveryChainDone, i, run->id);
  if (--run->chains_remaining == 0 && !run->phase4_started) {
    start_phase4(run);
  }
}

void MsScheme::abandon_recovery_slot(const std::shared_ptr<RecoveryRun>& run,
                                     int i) {
  if (!run->participating[static_cast<std::size_t>(i)] ||
      run->abandoned[static_cast<std::size_t>(i)]) {
    return;
  }
  run->abandoned[static_cast<std::size_t>(i)] = true;
  pending_recovery_recheck_ = true;
  m_recovery_abandoned_slots_->add(1);
  MS_LOG_WARN("ft", "HAU %d died during recovery %llu: chain abandoned", i,
              static_cast<unsigned long long>(run->id));
  if (!run->chain_done[static_cast<std::size_t>(i)]) {
    recovery_chain_done(run, i);
  }
  if (run->phase4_started && !run->acked[static_cast<std::size_t>(i)]) {
    recovery_ack(run, i);
  }
}

void MsScheme::recovery_watchdog(std::shared_ptr<RecoveryRun> run) {
  if (recovery_run_ != run) return;  // the run completed
  for (int i = 0; i < app_->num_haus(); ++i) {
    if (!run->participating[static_cast<std::size_t>(i)] ||
        run->abandoned[static_cast<std::size_t>(i)]) {
      continue;
    }
    core::Hau& hau = app_->hau(i);
    if (!app_->cluster().node_alive(hau.node()) && !hau.failed()) {
      hau.on_node_failed();
    }
    if (hau.failed() ||
        hau.incarnation() != run->incarnations[static_cast<std::size_t>(i)]) {
      abandon_recovery_slot(run, i);
    }
  }
  if (recovery_run_ != run) return;  // abandonment may have completed it
  app_->simulation().schedule_after(
      params_.recovery_watchdog_period,
      [this, run = std::move(run)]() mutable { recovery_watchdog(run); });
}

void MsScheme::start_phase4(const std::shared_ptr<RecoveryRun>& run) {
  run->phase4_started = true;
  auto& sim = app_->simulation();
  // Slowest live per-HAU chain defines the reported phase breakdown.
  int slowest = -1;
  SimTime slowest_total = SimTime::zero();
  for (int i = 0; i < app_->num_haus(); ++i) {
    if (!run->participating[static_cast<std::size_t>(i)] ||
        run->abandoned[static_cast<std::size_t>(i)]) {
      continue;
    }
    const auto& ph = run->per_hau[static_cast<std::size_t>(i)];
    const SimTime total = ph.phase2 + ph.phase13;
    if (slowest < 0 || total > slowest_total) {
      slowest_total = total;
      slowest = i;
    }
  }
  if (slowest >= 0) {
    run->stats->disk_io = run->per_hau[static_cast<std::size_t>(slowest)].phase2;
    run->stats->other = run->per_hau[static_cast<std::size_t>(slowest)].phase13;
  }

  // Phase 4: the controller reconnects the recovered HAUs — one handshake
  // per live participant. Acks are counted per slot: a participant that
  // dies mid-handshake is abandoned by the watchdog, which acks its slot,
  // so the barrier closes either way.
  run->phase4_start = sim.now();
  emit_probe(FtPoint::kRecoveryPhase4, -1, run->id);
  run->acks_remaining = 0;
  for (int i = 0; i < app_->num_haus(); ++i) {
    if (run->participating[static_cast<std::size_t>(i)] &&
        !run->abandoned[static_cast<std::size_t>(i)]) {
      ++run->acks_remaining;
    }
  }
  if (run->acks_remaining == 0) {
    // Every participant died mid-recovery; complete trivially and let the
    // queued re-check pick the pieces up.
    complete_recovery(run);
    return;
  }
  for (int i = 0; i < app_->num_haus(); ++i) {
    if (!run->participating[static_cast<std::size_t>(i)] ||
        run->abandoned[static_cast<std::size_t>(i)]) {
      continue;
    }
    core::Hau& hau = app_->hau(i);
    to_hau(hau, params_.reconnect_message_size,
           [this, run, i](core::Hau& h) {
             // Re-establish each outgoing stream connection before the ack.
             const SimTime setup =
                 params_.reconnect_per_edge *
                 static_cast<std::int64_t>(std::max(1, h.num_out_ports()));
             h.run_on_cpu(setup, [this, run, i, &h] {
               to_controller(h, 64,
                             [this, run, i] { recovery_ack(run, i); });
             });
           });
  }
}

void MsScheme::recovery_ack(const std::shared_ptr<RecoveryRun>& run, int i) {
  if (!run->participating[static_cast<std::size_t>(i)] ||
      run->acked[static_cast<std::size_t>(i)]) {
    return;
  }
  run->acked[static_cast<std::size_t>(i)] = true;
  if (--run->acks_remaining == 0) complete_recovery(run);
}

void MsScheme::complete_recovery(const std::shared_ptr<RecoveryRun>& run) {
  auto& sim = app_->simulation();
  run->stats->reconnection = sim.now() - run->phase4_start;
  run->stats->completed = sim.now();
  recoveries_.push_back(*run->stats);
  recovery_run_.reset();
  recovery_in_progress_ = false;
  m_recovery_completed_->add(1);
  m_recovery_total_->record(run->stats->total());
  emit_probe(FtPoint::kRecoveryComplete, -1, run->id);
  // Resume the surviving participants, resend captured in-flight tuples,
  // and replay the sources' preserved logs (not part of the measured
  // recovery time, per the paper). Abandoned or since-failed slots stay
  // closed; the follow-up pass recovers them.
  for (int i = 0; i < app_->num_haus(); ++i) {
    if (!run->participating[static_cast<std::size_t>(i)] ||
        run->abandoned[static_cast<std::size_t>(i)]) {
      continue;
    }
    core::Hau& hau = app_->hau(i);
    if (hau.failed() ||
        hau.incarnation() != run->incarnations[static_cast<std::size_t>(i)]) {
      continue;
    }
    hau.reopen();
    // The HAU's (possibly new) node is live again: clear any verdict or
    // accumulated suspicion so detection starts fresh.
    detector_->reset(hau.node());
    MsHauFt* ft = fts_[static_cast<std::size_t>(i)];
    ft->resend_inflight(hau,
                        std::move(run->inflights[static_cast<std::size_t>(i)]));
    if (hau.is_source()) {
      ft->replay_from(hau, run->boundaries[static_cast<std::size_t>(i)]);
    }
  }
  if (run->done) run->done(*run->stats);
  // Follow-up pass for HAUs left failed (no spare) or lost mid-recovery.
  bool any_failed = false;
  for (int i = 0; i < app_->num_haus(); ++i) {
    if (app_->hau(i).failed()) any_failed = true;
  }
  if ((pending_recovery_recheck_ || any_failed) && detection_enabled_) {
    pending_recovery_recheck_ = false;
    sim.schedule_after(params_.recovery_watchdog_period,
                       [this] { maybe_recover_failed(); });
  }
}

}  // namespace ms::ft
