// The per-HAU half of application-aware timing on scripted state-size
// series: turning points (a flat minimum included), the half-drop rule, the
// reporting gates and the observation window.
#include "ft/aa_sampler.h"

#include <gtest/gtest.h>

#include <vector>

namespace ms::ft {
namespace {

/// Feeds `sizes` at t = 1 s, 2 s, ... and returns one Events per sample.
std::vector<AaSampler::Events> feed(AaSampler& sampler,
                                    const std::vector<double>& sizes) {
  std::vector<AaSampler::Events> out;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.push_back(sampler.add_sample(
        SimTime::seconds(static_cast<std::int64_t>(i + 1)), sizes[i]));
  }
  return out;
}

// Rises to a peak at t=2, falls, holds its minimum flat at t=4 and t=5,
// then rises again.
const std::vector<double> kSawtooth = {10, 100, 50, 20, 20, 60};

TEST(AaSamplerTest, FlatMinimumIsReportedWithItsTimeAndLeavingSlope) {
  AaSampler s;
  s.set_profiling(true);
  const auto ev = feed(s, kSawtooth);

  ASSERT_TRUE(ev[2].turning_point.has_value());  // the peak, seen at t=3
  EXPECT_FALSE(ev[2].turning_point->is_minimum);
  EXPECT_EQ(ev[2].turning_point->t, SimTime::seconds(2));
  EXPECT_DOUBLE_EQ(ev[2].turning_point->size, 100.0);
  EXPECT_DOUBLE_EQ(ev[2].turning_point->icr, -50.0);

  // The flat stretch reports nothing; the rise at t=6 completes the minimum
  // at its last flat sample, with the slope of the segment leaving it.
  EXPECT_FALSE(ev[3].turning_point.has_value());
  EXPECT_FALSE(ev[4].turning_point.has_value());
  ASSERT_TRUE(ev[5].turning_point.has_value());
  EXPECT_TRUE(ev[5].turning_point->is_minimum);
  EXPECT_EQ(ev[5].turning_point->t, SimTime::seconds(5));
  EXPECT_DOUBLE_EQ(ev[5].turning_point->size, 20.0);
  EXPECT_DOUBLE_EQ(ev[5].turning_point->icr, 40.0);
  EXPECT_DOUBLE_EQ(s.current_icr(), 40.0);
}

TEST(AaSamplerTest, HalfDropIsAMinimumBelowHalfThePrecedingMaximum) {
  AaSampler s;
  s.mark_dynamic();
  const auto ev = feed(s, kSawtooth);
  // 50 -> 20 halves one sample's size, but only the completed minimum (20
  // after the peak of 100) is a half-drop.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].half_drop, i == 5) << "sample " << i;
  }

  // A minimum at or above half the peak is not a half-drop.
  AaSampler shallow;
  shallow.mark_dynamic();
  for (const auto& e : feed(shallow, {10, 100, 70, 50, 80})) {
    EXPECT_FALSE(e.half_drop);
  }
}

TEST(AaSamplerTest, HalfDropOnlyWhileDynamicAndOutOfAlertMode) {
  AaSampler not_dynamic;
  for (const auto& e : feed(not_dynamic, kSawtooth)) EXPECT_FALSE(e.half_drop);

  AaSampler in_alert;
  in_alert.mark_dynamic();
  in_alert.set_alert(true);
  for (const auto& e : feed(in_alert, kSawtooth)) EXPECT_FALSE(e.half_drop);
}

TEST(AaSamplerTest, TurningPointsGatedByProfilingAlertAndDynamic) {
  const auto reported = [](AaSampler& s) {
    int n = 0;
    for (const auto& e : feed(s, kSawtooth)) n += e.turning_point ? 1 : 0;
    return n;
  };
  AaSampler idle;
  EXPECT_EQ(reported(idle), 0);

  AaSampler profiling;
  profiling.set_profiling(true);
  EXPECT_EQ(reported(profiling), 2);

  AaSampler dynamic_quiet;  // dynamic, neither profiling nor alert
  dynamic_quiet.mark_dynamic();
  EXPECT_EQ(reported(dynamic_quiet), 0);

  AaSampler alert_static;  // alert mode reaches dynamic HAUs only
  alert_static.set_alert(true);
  EXPECT_EQ(reported(alert_static), 0);

  AaSampler alert_dynamic;
  alert_dynamic.mark_dynamic();
  alert_dynamic.set_alert(true);
  EXPECT_EQ(reported(alert_dynamic), 2);
}

TEST(AaSamplerTest, ObservationMinAndAverage) {
  AaSampler s;
  s.add_sample(SimTime::seconds(1), 7.0);  // before the window: not counted
  s.begin_observation();
  s.add_sample(SimTime::seconds(2), 4.0);
  s.add_sample(SimTime::seconds(3), 2.0);
  s.add_sample(SimTime::seconds(4), 9.0);
  s.add_sample(SimTime::seconds(5), 5.0);
  const AaSampler::Observation obs = s.end_observation();
  EXPECT_DOUBLE_EQ(obs.min, 2.0);
  EXPECT_DOUBLE_EQ(obs.avg, 5.0);

  // A closed window stops counting; an empty one reports (0, 0).
  s.add_sample(SimTime::seconds(6), 1.0);
  s.begin_observation();
  const AaSampler::Observation empty = s.end_observation();
  EXPECT_EQ(empty.min, 0.0);
  EXPECT_EQ(empty.avg, 0.0);
}

TEST(AaSamplerTest, RestartForgetsTheSignalButNotTheDynamicMark) {
  AaSampler s;
  s.mark_dynamic();
  s.set_profiling(true);
  feed(s, {10, 100, 50});  // peak 100 recorded
  s.restart();
  // Profiling is off after the restart, and the retained peak still arms
  // the half-drop rule: the new signal's minimum 40 is below half of 100.
  const auto ev = feed(s, {50, 40, 45});
  EXPECT_FALSE(ev[2].turning_point.has_value());
  EXPECT_TRUE(ev[2].half_drop);
}

}  // namespace
}  // namespace ms::ft
