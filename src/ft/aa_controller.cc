#include "ft/aa_controller.h"

#include <algorithm>

#include "common/log.h"
#include "common/status.h"
#include "common/trace.h"

namespace ms::ft {

void AaController::trace_instant(SimTime now, const char* name) {
  if (trace_ == nullptr) return;
  trace_->instant(now, trace_track::kAppPid, trace_track::kControllerTid, name,
                  "aa");
}

void AaController::begin(SimTime now) {
  (void)now;
  phase_ = Phase::kObservation;
  observed_.clear();
  dynamic_.clear();
  profiles_.clear();
  readings_.clear();
  alert_ = false;
  checkpointed_this_period_ = false;
}

void AaController::start(Runtime* runtime) {
  MS_CHECK(runtime != nullptr);
  runtime_ = runtime;
  begin(runtime_->now());
  stage_.begin_observation();
  const SimTime window = profile_window();
  runtime_->schedule_after(window, [this] {
    plain_checkpoint();
    stage_.end_observation();
  });
  const int profile_periods = std::max(1, params_.profile_periods);
  for (int k = 1; k <= profile_periods; ++k) {
    runtime_->schedule_after(window * static_cast<std::int64_t>(k + 1),
                             [this] { plain_checkpoint(); });
  }
  runtime_->schedule_after(
      window * static_cast<std::int64_t>(profile_periods + 1), [this] {
        stage_.end_profiling();
        finish_profiling(runtime_->now());
        execution_loop();
      });
}

void AaController::plain_checkpoint() {
  if (params_.checkpoint_during_profiling) hooks_.trigger_checkpoint();
}

void AaController::execution_loop() {
  if (stage_.blocked && stage_.blocked()) {
    runtime_->schedule_after(SimTime::seconds(1), [this] { execution_loop(); });
    return;
  }
  on_period_start(runtime_->now());
  runtime_->schedule_after(params_.checkpoint_period, [this] {
    on_period_end(runtime_->now());
    execution_loop();
  });
}

void AaController::report_observation(int hau_id, double min_size,
                                      double avg_size) {
  observed_[hau_id] = {min_size, avg_size};
}

void AaController::finish_observation(SimTime now) {
  MS_CHECK(phase_ == Phase::kObservation);
  dynamic_.clear();
  for (const auto& [hau, mm] : observed_) {
    const auto& [mn, avg] = mm;
    if (avg > 0.0 && mn < params_.dynamic_threshold * avg) {
      dynamic_.push_back(hau);
    }
  }
  phase_ = Phase::kProfiling;
  profiling_started_ = now;
  trace_instant(now, "aa-observation-done");
  MS_LOG_INFO("aa", "observation done: %zu dynamic HAUs", dynamic_.size());
}

SimTime AaController::profile_window() const {
  return params_.profile_period > SimTime::zero() ? params_.profile_period
                                                  : params_.checkpoint_period;
}

bool AaController::is_dynamic(int hau_id) const {
  return std::find(dynamic_.begin(), dynamic_.end(), hau_id) != dynamic_.end();
}

void AaController::report_turning_point(int hau_id, SimTime t, double size,
                                        double icr) {
  if (phase_ == Phase::kProfiling) {
    auto& poly = profiles_[hau_id];
    if (poly.empty() || t > poly.points().back().first) {
      poly.add_point(t, size);
    }
    return;
  }
  if (phase_ == Phase::kExecution && alert_) {
    auto& r = readings_[hau_id];
    r.size = size;
    r.icr = icr;
    r.valid = true;
    maybe_fire(t);
  }
}

void AaController::finish_profiling(SimTime now) {
  MS_CHECK(phase_ == Phase::kProfiling);
  phase_ = Phase::kExecution;
  trace_instant(now, "aa-profiling-done");

  // Sum the per-HAU polylines at the union of their vertex times.
  std::vector<SimTime> times;
  for (const auto& [hau, poly] : profiles_) {
    (void)hau;
    for (const auto& [t, s] : poly.points()) {
      (void)s;
      times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  statesize::PolylineSignal aggregate;
  for (const SimTime t : times) {
    double sum = 0.0;
    for (const auto& [hau, poly] : profiles_) {
      (void)hau;
      sum += poly.value_at(t);
    }
    aggregate.add_point(t, sum);
  }
  if (aggregate.empty()) {
    // No turning points: either nothing is dynamic, or the dynamic state's
    // cycle is longer than the profiling window (monotone growth all the
    // way through — TMI's 10-minute pools under a shorter profile). Fall
    // back to the observation statistics: arm alert mode below the
    // threshold fraction of the dynamic HAUs' average state, so the
    // half-drop notification at the eventual batch discard still triggers
    // a well-timed checkpoint.
    smin_ = 0.0;
    smax_ = 0.0;
    for (const int hau : dynamic_) {
      const auto it = observed_.find(hau);
      if (it != observed_.end()) {
        smax_ += it->second.second * params_.dynamic_threshold;
      }
    }
    if (smax_ > 0.0) {
      MS_LOG_INFO("aa",
                  "no turning points in profiling; observation fallback "
                  "smax=%.1f",
                  smax_);
    } else {
      MS_LOG_WARN("aa", "profiling produced no turning points");
    }
    return;
  }

  // Per-period minima of the aggregate over the profiling window.
  const SimTime period = profile_window();
  const SimTime t0 = profiling_started_;
  std::vector<double> minima;
  for (SimTime p = t0; p + period <= now; p += period) {
    minima.push_back(aggregate.minimum_in(p, p + period).second);
  }
  if (minima.empty()) {
    minima.push_back(aggregate.minimum_in(t0, now).second);
  }
  smin_ = *std::min_element(minima.begin(), minima.end());
  smax_ = *std::max_element(minima.begin(), minima.end());
  // Relaxation factor alpha = (smax - smin)/smin, bounded below by 20 %.
  // The paper's formula degenerates when the state empties completely
  // (smin = 0 makes alpha undefined and smax = 0 disarms alert mode); a
  // small fraction of the observed peak keeps the threshold meaningful.
  double peak = 0.0;
  for (const auto& [t, v] : aggregate.points()) {
    (void)t;
    peak = std::max(peak, v);
  }
  const double relaxed = smin_ * (1.0 + params_.relaxation_min);
  smax_ = std::max({smax_, relaxed, 0.05 * peak});
  MS_LOG_INFO("aa", "profiling done: smin=%.1f smax=%.1f", smin_, smax_);
}

void AaController::force_execution(std::vector<int> dynamic_haus, double smax,
                                   double smin) {
  phase_ = Phase::kExecution;
  dynamic_ = std::move(dynamic_haus);
  smax_ = smax;
  smin_ = smin;
  readings_.clear();
  alert_ = false;
  checkpointed_this_period_ = false;
}

double AaController::aggregate_size() const {
  double sum = 0.0;
  for (const auto& [hau, r] : readings_) {
    (void)hau;
    if (r.valid) sum += r.size;
  }
  return sum;
}

double AaController::aggregate_icr() const {
  double sum = 0.0;
  for (const auto& [hau, r] : readings_) {
    (void)hau;
    if (r.valid) sum += r.icr;
  }
  return sum;
}

void AaController::on_period_start(SimTime now) {
  (void)now;
  if (phase_ != Phase::kExecution) return;
  checkpointed_this_period_ = false;
  alert_ = false;
  if (hooks_.set_alert_reporting) hooks_.set_alert_reporting(false);
  for (auto& [hau, r] : readings_) {
    (void)hau;
    r.valid = false;
  }
  if (!dynamic_.empty() && hooks_.query_dynamic_haus) {
    outstanding_queries_ = static_cast<int>(dynamic_.size());
    hooks_.query_dynamic_haus();
  }
}

void AaController::on_period_end(SimTime now) {
  if (phase_ != Phase::kExecution) return;
  if (!checkpointed_this_period_) {
    // The aggregate never dipped below smax (or never turned): checkpoint
    // anyway at the end of the period.
    checkpointed_this_period_ = true;
    alert_ = false;
    if (hooks_.set_alert_reporting) hooks_.set_alert_reporting(false);
    trace_instant(now, "aa-forced-trigger");
    if (hooks_.trigger_checkpoint) hooks_.trigger_checkpoint();
  }
}

void AaController::on_half_drop_notification(int hau_id, SimTime now) {
  (void)hau_id;
  (void)now;
  if (phase_ != Phase::kExecution || alert_ || checkpointed_this_period_) return;
  if (!dynamic_.empty() && hooks_.query_dynamic_haus) {
    outstanding_queries_ = static_cast<int>(dynamic_.size());
    hooks_.query_dynamic_haus();
  }
}

void AaController::on_query_response(int hau_id, SimTime now, double size,
                                     double icr) {
  if (phase_ != Phase::kExecution) return;
  auto& r = readings_[hau_id];
  r.size = size;
  r.icr = icr;
  r.valid = true;
  if (outstanding_queries_ > 0 && --outstanding_queries_ == 0) {
    evaluate_alert_entry(now);
  }
}

void AaController::evaluate_alert_entry(SimTime now) {
  if (alert_ || checkpointed_this_period_) return;
  const double total = aggregate_size();
  if (total < smax_) {
    alert_ = true;
    if (hooks_.set_alert_reporting) hooks_.set_alert_reporting(true);
    trace_instant(now, "aa-alert-on");
    MS_LOG_DEBUG("aa", "alert mode entered (total=%.1f < smax=%.1f)", total,
                 smax_);
    // The sizes just collected may already foresee an increase.
    maybe_fire(now);
  }
}

void AaController::maybe_fire(SimTime now) {
  if (!alert_ || checkpointed_this_period_) return;
  // Fire at the first foreseen increase of the aggregate state size.
  bool any_valid = false;
  for (const auto& [hau, r] : readings_) {
    (void)hau;
    any_valid = any_valid || r.valid;
  }
  if (!any_valid) return;
  if (aggregate_icr() > 0.0) {
    checkpointed_this_period_ = true;
    alert_ = false;
    if (hooks_.set_alert_reporting) hooks_.set_alert_reporting(false);
    trace_instant(now, "aa-trigger");
    if (hooks_.trigger_checkpoint) hooks_.trigger_checkpoint();
  }
}

}  // namespace ms::ft
