#include "ft/aa_sampler.h"

#include <algorithm>

namespace ms::ft {

AaSampler::Events AaSampler::add_sample(SimTime t, double size) {
  if (observing_) {
    obs_min_ = obs_n_ == 0 ? size : std::min(obs_min_, size);
    obs_sum_ += size;
    ++obs_n_;
  }
  Events events;
  const auto tp = detector_.add_sample(t, size);
  if (!tp.has_value()) return events;
  if (profiling_ || (alert_ && dynamic_)) events.turning_point = tp;
  if (dynamic_ && !alert_) {
    if (!tp->is_minimum) {
      last_max_ = tp->size;
    } else if (last_max_ > 0.0 && tp->size < 0.5 * last_max_) {
      events.half_drop = true;
    }
  }
  return events;
}

void AaSampler::begin_observation() {
  observing_ = true;
  obs_min_ = 0.0;
  obs_sum_ = 0.0;
  obs_n_ = 0;
}

AaSampler::Observation AaSampler::end_observation() {
  observing_ = false;
  if (obs_n_ == 0) return {};
  return {obs_min_, obs_sum_ / static_cast<double>(obs_n_)};
}

void AaSampler::restart() {
  detector_.reset();
  alert_ = false;
  profiling_ = false;
  observing_ = false;
}

}  // namespace ms::ft
