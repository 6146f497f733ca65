#include "ft/protocol.h"

#include <string>

#include "common/log.h"
#include "common/status.h"
#include "ft/cadence_controller.h"

namespace ms::ft {

CheckpointCoordinator::CheckpointCoordinator(Runtime* runtime,
                                             const FtParams& params,
                                             std::uint64_t first_id)
    : runtime_(runtime),
      params_(params),
      next_checkpoint_id_(first_id),
      metrics_(&MetricsRegistry::global()) {
  MS_CHECK(runtime != nullptr);
  bind_metrics();
}

void CheckpointCoordinator::bind_metrics() {
  m_ckpt_started_ = metrics_->counter("ft.ckpt.started");
  m_ckpt_completed_ = metrics_->counter("ft.ckpt.completed");
  m_ckpt_abandoned_ = metrics_->counter("ft.ckpt.abandoned");
  m_ckpt_retransmits_ = metrics_->counter("ft.ckpt.retransmits");
  m_ckpt_duplicate_reports_ = metrics_->counter("ft.ckpt.duplicate_reports");
  m_ckpt_in_progress_ = metrics_->gauge("ft.ckpt.in_progress");
  m_ckpt_token_collection_ = metrics_->histogram("ft.ckpt.token_collection");
  m_ckpt_other_ = metrics_->histogram("ft.ckpt.other");
  m_ckpt_disk_io_ = metrics_->histogram("ft.ckpt.disk_io");
  m_ckpt_total_ = metrics_->histogram("ft.ckpt.total");
}

void CheckpointCoordinator::set_metrics(MetricsRegistry* metrics) {
  MS_CHECK(metrics != nullptr);
  metrics_ = metrics;
  bind_metrics();
}

SimTime CheckpointCoordinator::effective_period() const {
  return cadence_ != nullptr ? cadence_->interval() : params_.checkpoint_period;
}

void CheckpointCoordinator::schedule_periodic() {
  // Re-read the period on every arm so a cadence retune takes effect from
  // the next cycle onward.
  runtime_->schedule_after(effective_period(), [this] {
    if (!(blocked_ && blocked_())) begin_checkpoint();
    schedule_periodic();
  });
}

void CheckpointCoordinator::begin_checkpoint() {
  if (blocked_ && blocked_()) return;
  if (!in_progress_.empty()) {
    // Never overlap application checkpoints: a unit still aligned on the
    // previous epoch would ignore the new token command and the epoch could
    // never complete. The paper's controller serializes them too. An epoch
    // that has been running for several periods is considered wedged (e.g.
    // a write lost to a storage outage) and is abandoned so checkpointing
    // can resume.
    const SimTime now = runtime_->now();
    const SimTime stale_after = effective_period() * std::int64_t{3};
    for (auto it = in_progress_.begin(); it != in_progress_.end();) {
      if (now - it->second.initiated > stale_after) {
        abandon_one(it->first, "wedged past the stale window");
        it = in_progress_.erase(it);
      } else {
        ++it;
      }
    }
    m_ckpt_in_progress_->set(static_cast<double>(in_progress_.size()));
    if (!in_progress_.empty()) {
      MS_LOG_DEBUG("ft", "checkpoint skipped: previous epoch still running");
      return;
    }
  }
  const std::uint64_t id = next_checkpoint_id_++;
  AppCheckpointStats stats;
  stats.checkpoint_id = id;
  stats.initiated = runtime_->now();
  in_progress_[id] = stats;
  m_ckpt_started_->add(1);
  m_ckpt_in_progress_->set(static_cast<double>(in_progress_.size()));

  runtime_->start_epoch(id);
  schedule_retransmit(id);
}

void CheckpointCoordinator::schedule_retransmit(std::uint64_t id) {
  if (params_.token_retransmit_timeout <= SimTime::zero()) return;
  runtime_->schedule_after(params_.token_retransmit_timeout, [this, id] {
    if (in_progress_.find(id) == in_progress_.end()) return;  // completed
    MS_LOG_DEBUG("ft", "retransmitting checkpoint epoch %llu",
                 static_cast<unsigned long long>(id));
    m_ckpt_retransmits_->add(1);
    runtime_->retransmit_epoch(id);
    schedule_retransmit(id);
  });
}

void CheckpointCoordinator::abandon_one(std::uint64_t id, const char* why) {
  MS_LOG_WARN("ft", "abandoning checkpoint epoch %llu: %s",
              static_cast<unsigned long long>(id), why);
  emit(FtPoint::kEpochAbandon, -1, id);
  m_ckpt_abandoned_->add(1);
  if (cadence_ != nullptr) cadence_->on_checkpoint_abandoned();
  reported_units_.erase(id);
  runtime_->abandon_epoch(id);
}

void CheckpointCoordinator::on_unit_report(const HauCheckpointReport& report) {
  const auto it = in_progress_.find(report.checkpoint_id);
  if (it == in_progress_.end()) return;  // aborted by a recovery
  if (!reported_units_[report.checkpoint_id].insert(report.hau_id).second) {
    // Idempotent duplicate handling: the network duplicated the report, or
    // the unit re-sent it in response to a retransmitted command.
    m_ckpt_duplicate_reports_->add(1);
    return;
  }
  // Live phase breakdown, queryable mid-run (per-unit gauges plus the
  // aggregate histograms feeding Fig. 14).
  m_ckpt_token_collection_->record(report.token_collection());
  m_ckpt_other_->record(report.other());
  m_ckpt_disk_io_->record(report.disk_io());
  m_ckpt_total_->record(report.total());
  const std::string hau_prefix = "ft.ckpt.hau." + std::to_string(report.hau_id);
  metrics_->gauge(hau_prefix + ".token_collection_ns")
      ->set(static_cast<double>(report.token_collection().ns()));
  metrics_->gauge(hau_prefix + ".disk_io_ns")
      ->set(static_cast<double>(report.disk_io().ns()));
  metrics_->gauge(hau_prefix + ".total_ns")
      ->set(static_cast<double>(report.total().ns()));
  AppCheckpointStats& stats = it->second;
  stats.total_declared += report.declared_bytes;
  ++stats.haus_reported;
  if (stats.haus_reported == 1 || report.total() > stats.slowest.total()) {
    stats.slowest = report;
  }
  if (stats.haus_reported == runtime_->num_units()) {
    stats.completed = runtime_->now();
    last_completed_ = stats.checkpoint_id;
    const std::uint64_t id = stats.checkpoint_id;
    if (cadence_ != nullptr) {
      // The per-epoch tax the interval amortizes is the slowest unit's
      // serialize ("other") + disk-io span; token collection overlaps
      // processing and is not part of the cost the controller trades off.
      cadence_->on_checkpoint_complete(
          stats.slowest.other() + stats.slowest.disk_io(),
          stats.total_declared);
    }
    checkpoints_.push_back(stats);
    reported_units_.erase(id);
    in_progress_.erase(it);  // invalidates `stats`
    m_ckpt_completed_->add(1);
    m_ckpt_in_progress_->set(static_cast<double>(in_progress_.size()));

    runtime_->commit_epoch(id);
  }
}

void CheckpointCoordinator::on_unit_checkpoint_failed(std::uint64_t ckpt_id) {
  const auto it = in_progress_.find(ckpt_id);
  if (it == in_progress_.end()) return;
  in_progress_.erase(it);
  abandon_one(ckpt_id, "a unit's write failed");
  m_ckpt_in_progress_->set(static_cast<double>(in_progress_.size()));
}

void CheckpointCoordinator::on_unit_failed(int unit) {
  for (auto it = in_progress_.begin(); it != in_progress_.end();) {
    const auto rep = reported_units_.find(it->first);
    const bool reported =
        rep != reported_units_.end() && rep->second.count(unit) > 0;
    if (reported) {
      // The failed unit already contributed its report; the epoch can still
      // complete off the stored checkpoint.
      ++it;
      continue;
    }
    abandon_one(it->first, "a participating unit failed before reporting");
    it = in_progress_.erase(it);
  }
  m_ckpt_in_progress_->set(static_cast<double>(in_progress_.size()));
}

void CheckpointCoordinator::abort_in_progress() {
  in_progress_.clear();
  reported_units_.clear();
  m_ckpt_in_progress_->set(0.0);
}

}  // namespace ms::ft
