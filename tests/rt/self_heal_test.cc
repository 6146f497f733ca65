// Self-healing runtime end-to-end: with config.auto_recover the supervisor
// must notice a crash through heartbeat silence alone and bring the stream
// back — no manual recover() in the happy path. Crashes are scripted at
// every checkpoint protocol point and inside every recovery phase (the
// latter exercising the bounded-backoff retry loop), and the recovered sink
// output must be exactly 0..n-1 on the SAME engine. The pathological paths
// — crash-loop quarantine, retry exhaustion — must degrade to a Status
// instead of flapping forever, and a slow-but-alive operator must be
// exonerated, not recovered.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>

#include "../testing/rt_feed.h"
#include "../testing/test_ops.h"
#include "common/metrics_registry.h"
#include "failure/rt_chaos.h"
#include "ft/failure_detector.h"
#include "ft/rt_runtime.h"
#include "rt/engine.h"

namespace ms::failure {
namespace {

namespace fs = std::filesystem;
using ms::testing::ExternalFeed;
using ms::testing::feed_chain;
using ms::testing::int_codec;
using ms::testing::RecordingSink;
using ms::testing::wait_drained;
using ms::testing::wait_for;
using ms::testing::wait_quiescent;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

ft::RtRuntimeConfig heal_config(const std::string& dir) {
  ft::RtRuntimeConfig cfg;
  cfg.mode = ft::RtMode::kSrcAp;
  cfg.dir = fresh_dir(dir);
  cfg.params.periodic = false;
  cfg.codec = int_codec();
  cfg.auto_recover = true;
  return cfg;
}

/// The supervisor observed the verdict, healed, and the runtime reports
/// healthy again.
bool wait_healed(ft::RtRuntime& runtime, std::uint64_t recoveries = 1) {
  return wait_for(
      [&runtime, recoveries] {
        return runtime.auto_recoveries() >= recoveries &&
               runtime.health().is_ok() && !runtime.crashed();
      },
      std::chrono::seconds(30));
}

void expect_sink_exact(rt::RtEngine& engine, int sink_op, std::int64_t n) {
  const auto& sink = static_cast<const RecordingSink&>(engine.op(sink_op));
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(sink.values[static_cast<std::size_t>(i)], i)
        << "wrong/duplicated value at position " << i;
  }
}

struct PointName {
  template <typename ParamType>
  std::string operator()(const ::testing::TestParamInfo<ParamType>& info) const {
    std::string name = ft::ft_point_name(info.param);
    for (char& c : name) {
      if (c == '-' || c == '+') c = '_';
    }
    return name;
  }
};

// --- Crash at a checkpoint protocol point; the supervisor heals ------------

class SelfHealCheckpointTest : public ::testing::TestWithParam<ft::FtPoint> {};

TEST_P(SelfHealCheckpointTest, SupervisorHealsWithoutManualRecover) {
  auto feed = std::make_shared<ExternalFeed>();
  auto cfg = heal_config(std::string("ms_selfheal_") +
                         ft::ft_point_name(GetParam()));

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  ft::RtRuntime runtime(&engine, cfg);
  RtChaos chaos(&runtime);
  chaos.crash_on(GetParam());
  chaos.arm();
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_TRUE(runtime.health().is_ok());
  wait_drained(engine, 200);
  // The scripted point fires inside this attempt; the crash silences the
  // liveness heartbeats and the supervisor takes it from there.
  ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
  ASSERT_TRUE(wait_healed(runtime))
      << "self-heal never completed for " << ft::ft_point_name(GetParam())
      << "; health: " << runtime.health().to_string();
  EXPECT_EQ(chaos.kills(), 1);
  EXPECT_GE(runtime.auto_recoveries(), 1u);

  // The healed runtime is fully operational: tuples flow and a fresh
  // checkpoint commits durably.
  wait_drained(engine, engine.sink_tuples() + 100);
  ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
  ASSERT_TRUE(runtime.wait_checkpoints(1, SimTime::seconds(10)));
  feed->paused.store(true);
  wait_quiescent(engine);
  const std::int64_t total = feed->cursor.load();
  runtime.stop();
  // Exactly-once on the same engine: the heal restored the sink's recorded
  // values from the snapshot and replayed the preserved suffix.
  expect_sink_exact(engine, 3, total);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolPoints, SelfHealCheckpointTest,
    ::testing::Values(ft::FtPoint::kTokenAlignStart,   // token in flight
                      ft::FtPoint::kTokenReceived,     // token at a port head
                      ft::FtPoint::kSerializeStart,    // serialize window
                      ft::FtPoint::kForkDone,          // post-fork window
                      ft::FtPoint::kCheckpointWrite),  // disk I/O
    PointName());

// --- Crash during the heal itself; the retry loop finishes the job ---------

class SelfHealRecoveryKillTest : public ::testing::TestWithParam<ft::FtPoint> {
};

TEST_P(SelfHealRecoveryKillTest, BackoffRetryHealsAfterRecoveryCrash) {
  auto feed = std::make_shared<ExternalFeed>();
  auto cfg = heal_config(std::string("ms_selfheal_rec_") +
                         ft::ft_point_name(GetParam()));
  cfg.params.self_heal_backoff = SimTime::millis(10);

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  ft::RtRuntime runtime(&engine, cfg);
  RtChaos chaos(&runtime);
  // Fires during self-heal attempt #1, killing the recovery mid-phase; the
  // trigger is then spent, so attempt #2 (after backoff) runs clean.
  chaos.crash_on(GetParam());
  chaos.arm();
  ASSERT_TRUE(runtime.start().is_ok());
  wait_drained(engine, 200);
  ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
  ASSERT_TRUE(runtime.wait_checkpoints(1, SimTime::seconds(10)));
  wait_drained(engine, engine.sink_tuples() + 100);

  runtime.simulate_crash();
  ASSERT_TRUE(wait_healed(runtime))
      << "retry never healed for " << ft::ft_point_name(GetParam())
      << "; health: " << runtime.health().to_string();
  EXPECT_EQ(chaos.kills(), 1);

  wait_drained(engine, engine.sink_tuples() + 100);
  feed->paused.store(true);
  wait_quiescent(engine);
  const std::int64_t total = feed->cursor.load();
  runtime.stop();
  expect_sink_exact(engine, 3, total);
}

INSTANTIATE_TEST_SUITE_P(RecoveryPhases, SelfHealRecoveryKillTest,
                         ::testing::Values(ft::FtPoint::kRecoveryPhase1,
                                           ft::FtPoint::kRecoveryPhase2,
                                           ft::FtPoint::kRecoveryPhase3,
                                           ft::FtPoint::kRecoveryPhase4),
                         PointName());

// --- Crash loop: repeated instant re-crashes end in quarantine -------------

TEST(SelfHealTest, CrashLoopQuarantinesInsteadOfFlapping) {
  auto feed = std::make_shared<ExternalFeed>();
  auto cfg = heal_config("ms_selfheal_crashloop");

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  ft::RtRuntime runtime(&engine, cfg);
  RtChaos chaos(&runtime);
  // Each completed heal immediately crashes again: three rapid verdicts
  // (threshold 3 within the 2 s window) and the supervisor must stop
  // resurrecting the runtime.
  chaos.crash_on(ft::FtPoint::kRecoveryComplete, /*hau_id=*/-1,
                 /*occurrence=*/1);
  chaos.crash_on(ft::FtPoint::kRecoveryComplete, /*hau_id=*/-1,
                 /*occurrence=*/2);
  chaos.arm();
  ASSERT_TRUE(runtime.start().is_ok());
  wait_drained(engine, 200);
  runtime.simulate_crash();

  ASSERT_TRUE(wait_for([&runtime] { return !runtime.health().is_ok(); },
                       std::chrono::seconds(30)))
      << "quarantine never engaged; recoveries: " << runtime.auto_recoveries();
  const Status health = runtime.health();
  EXPECT_EQ(health.code(), StatusCode::kUnavailable);
  EXPECT_NE(health.message().find("quarantine"), std::string::npos)
      << health.to_string();
  // Both scripted re-crashes were preceded by a successful heal.
  EXPECT_EQ(runtime.auto_recoveries(), 2u);
  EXPECT_TRUE(runtime.crashed());

  // Degraded, not dead: the operator lifts the quarantine by hand.
  runtime.stop();
  runtime.clear_crash();
  ft::RecoveryStats stats;
  ASSERT_TRUE(runtime.recover(&stats).is_ok());
  EXPECT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
  feed->paused.store(true);
  wait_quiescent(engine);
  const std::int64_t total = feed->cursor.load();
  runtime.stop();
  expect_sink_exact(engine, 3, total);
}

// --- Retry exhaustion: every attempt dies; health degrades to a Status -----

TEST(SelfHealTest, RetryExhaustionDegradesToUnavailable) {
  auto feed = std::make_shared<ExternalFeed>();
  auto cfg = heal_config("ms_selfheal_exhaust");
  cfg.params.self_heal_max_attempts = 2;
  cfg.params.self_heal_backoff = SimTime::millis(10);

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  ft::RtRuntime runtime(&engine, cfg);
  RtChaos chaos(&runtime);
  // Every self-heal attempt dies the moment recovery starts.
  chaos.crash_on(ft::FtPoint::kRecoveryStart, /*hau_id=*/-1, /*occurrence=*/1);
  chaos.crash_on(ft::FtPoint::kRecoveryStart, /*hau_id=*/-1, /*occurrence=*/2);
  chaos.arm();
  ASSERT_TRUE(runtime.start().is_ok());
  wait_drained(engine, 200);
  runtime.simulate_crash();

  ASSERT_TRUE(wait_for([&runtime] { return !runtime.health().is_ok(); },
                       std::chrono::seconds(30)));
  const Status health = runtime.health();
  EXPECT_EQ(health.code(), StatusCode::kUnavailable);
  EXPECT_NE(health.message().find("exhausted"), std::string::npos)
      << health.to_string();
  EXPECT_EQ(runtime.auto_recoveries(), 0u);
  EXPECT_EQ(chaos.kills(), 2);
  runtime.stop();
}

// --- Slow but alive: suspicion, then exoneration, never a recovery ---------

TEST(SelfHealTest, SlowOperatorIsExoneratedNotRecovered) {
  auto feed = std::make_shared<ExternalFeed>();
  auto cfg = heal_config("ms_selfheal_slow");
  // Push the verdict threshold out of reach: the operator must be suspected
  // (missed deadlines accumulate) but never convicted.
  cfg.params.suspicion_threshold = 10000;

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  ft::RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  wait_drained(engine, 200);

  auto* fp = MetricsRegistry::global().counter("ft.detector.false_positive");
  const std::int64_t fp_before = fp->value();
  // Operator 1 goes quiet for 600 ms — three heartbeat timeouts' worth of
  // silence — while its tuples keep flowing.
  runtime.inject_heartbeat_delay(1, SimTime::millis(600));
  ASSERT_TRUE(wait_for([fp, fp_before] { return fp->value() > fp_before; },
                       std::chrono::seconds(30)))
      << "suspected operator was never exonerated";

  EXPECT_EQ(runtime.auto_recoveries(), 0u);
  EXPECT_TRUE(runtime.health().is_ok());
  EXPECT_FALSE(runtime.crashed());
  ASSERT_NE(runtime.detector(), nullptr);
  EXPECT_EQ(runtime.detector()->state(1),
            ft::FailureDetector::UnitState::kAlive);

  feed->paused.store(true);
  wait_quiescent(engine);
  const std::int64_t total = feed->cursor.load();
  runtime.stop();
  expect_sink_exact(engine, 3, total);
}

}  // namespace
}  // namespace ms::failure
