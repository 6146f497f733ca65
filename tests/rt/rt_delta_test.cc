// Delta-checkpoint chains on the real-threads runtime (RtMode::kSrcApDelta):
// the first epoch of an incarnation writes a full base snapshot, subsequent
// epochs persist only what mutated (op_<i>.delta chained on the base via the
// manifest's prev_epoch pointer), a full snapshot compacts the chain every
// delta_compact_every epochs, and recovery layers base + deltas back to a
// state byte-identical to what a full snapshot would have restored — also
// under chaos kills at every checkpoint and recovery protocol point.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../testing/rt_feed.h"
#include "../testing/test_ops.h"
#include "failure/disk_fault.h"
#include "failure/rt_chaos.h"
#include "ft/epoch_store.h"
#include "ft/rt_runtime.h"
#include "ft/source_log.h"
#include "rt/engine.h"
#include "storage/durable_file.h"

namespace ms::ft {
namespace {

namespace fs = std::filesystem;
using ms::failure::RtChaos;
using ms::testing::ExternalFeed;
using ms::testing::FeedSource;
using ms::testing::int_codec;
using ms::testing::IntPayload;
using ms::testing::KeyedDeltaSum;
using ms::testing::RecordingSink;
using ms::testing::wait_drained;
using ms::testing::wait_for;
using ms::testing::wait_quiescent;

/// feed -> kv relay (delta-capable) -> sink. The feed source and recording
/// sink do NOT support deltas, so every delta epoch is a mixed epoch: the kv
/// relay delivers a .delta, its neighbours fall back to full .ckpt blobs.
core::QueryGraph delta_chain(std::shared_ptr<ExternalFeed> feed) {
  core::QueryGraph g;
  const int src = g.add_source("src", [feed] {
    return std::make_unique<FeedSource>("src", feed, SimTime::micros(200), 4);
  });
  const int kv = g.add_operator(
      "kv", [] { return std::make_unique<KeyedDeltaSum>("kv", 16); });
  const int sink =
      g.add_sink("sink", [] { return std::make_unique<RecordingSink>("sink"); });
  g.connect(src, kv);
  g.connect(kv, sink);
  return g;
}

constexpr int kKvOp = 1;
constexpr int kSinkOp = 2;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

RtRuntimeConfig delta_config(const std::string& dir, int compact_every = 100) {
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcApDelta;
  cfg.dir = dir;
  cfg.params.periodic = false;  // checkpoints fire on the tests' command
  cfg.params.delta_compact_every = compact_every;
  cfg.codec = int_codec();
  return cfg;
}

std::vector<std::uint8_t> full_state_bytes(core::Operator& op) {
  BinaryWriter w;
  op.serialize_state(w);
  return w.take();
}

void expect_sink_exact(rt::RtEngine& engine, std::int64_t n) {
  const auto& sink = static_cast<const RecordingSink&>(engine.op(kSinkOp));
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(sink.values[static_cast<std::size_t>(i)], i)
        << "wrong/duplicated value at position " << i;
  }
}

/// Epoch directories under `dir` that committed (carry a MANIFEST).
std::vector<fs::path> committed_epochs(const std::string& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("epoch_", 0) == 0 &&
        fs::exists(entry.path() / "MANIFEST")) {
      out.push_back(entry.path());
    }
  }
  return out;
}

int count_files_with_extension(const std::string& dir, const char* ext) {
  int n = 0;
  for (const auto& epoch : committed_epochs(dir)) {
    for (const auto& f : fs::directory_iterator(epoch)) {
      if (f.path().extension() == ext) ++n;
    }
  }
  return n;
}

bool take_checkpoint(RtRuntime& runtime, std::uint64_t completed_so_far) {
  if (!runtime.begin_checkpoint().is_ok()) return false;
  return runtime.wait_checkpoints(completed_so_far + 1, SimTime::seconds(10));
}

// --- the chain itself -------------------------------------------------------

// Crash after several deltas, before any compaction: recovery must layer
// base + deltas to the exact serialized state of every operator — compared
// byte-for-byte against the pre-crash incarnation at the same cut.
TEST(RtDeltaTest, ChainRecoveryIsByteIdenticalToPreCrashState) {
  auto feed = std::make_shared<ExternalFeed>();
  const auto cfg = delta_config(fresh_dir("ms_delta_bytes"));

  std::vector<std::vector<std::uint8_t>> reference;
  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());

    // Base (epoch 1 of the incarnation is always full), then two deltas
    // with fresh mutations between the cuts.
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));
    wait_drained(engine, engine.sink_tuples() + 100);
    ASSERT_TRUE(take_checkpoint(runtime, 1));
    wait_drained(engine, engine.sink_tuples() + 100);

    // Fence the world, then cut the final delta at a quiescent point: the
    // live state at stop() equals the chain's reconstruction target.
    feed->paused.store(true);
    wait_quiescent(engine);
    ASSERT_TRUE(take_checkpoint(runtime, 2));
    total = feed->cursor.load();

    runtime.simulate_crash();
    runtime.stop();
    for (int i = 0; i < engine.num_operators(); ++i) {
      reference.push_back(full_state_bytes(engine.op(i)));
    }
  }
  // The chain on disk really is base + deltas: the kv relay wrote .delta
  // blobs on epochs 2 and 3 while its delta-unaware neighbours fell back to
  // full .ckpt files.
  EXPECT_EQ(count_files_with_extension(cfg.dir, ".delta"), 2);
  EXPECT_GT(count_files_with_extension(cfg.dir, ".ckpt"), 0);

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  RecoveryStats stats;
  ASSERT_TRUE(runtime.recover(&stats).is_ok());
  wait_quiescent(engine);
  runtime.stop();

  for (int i = 0; i < engine.num_operators(); ++i) {
    EXPECT_EQ(full_state_bytes(engine.op(i)), reference[static_cast<std::size_t>(i)])
        << "operator " << i << " restored state diverges from the cut";
  }
  expect_sink_exact(engine, total);
}

// Kill mid-run with values still in flight past the last delta cut: layered
// restore plus source-log replay must still be exactly-once at the sink.
TEST(RtDeltaTest, ReplayAfterDeltaRestoreIsExactlyOnce) {
  auto feed = std::make_shared<ExternalFeed>();
  const auto cfg = delta_config(fresh_dir("ms_delta_replay"));

  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));  // full base
    wait_drained(engine, engine.sink_tuples() + 100);
    ASSERT_TRUE(take_checkpoint(runtime, 1));  // delta
    wait_drained(engine, engine.sink_tuples() + 100);
    ASSERT_TRUE(take_checkpoint(runtime, 2));  // delta
    // Keep producing past the last cut, then pull the plug.
    wait_drained(engine, engine.sink_tuples() + 150);
    runtime.simulate_crash();
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);

  const auto& kv = static_cast<const KeyedDeltaSum&>(engine.op(kKvOp));
  std::map<std::int64_t, std::int64_t> expect;
  for (std::int64_t v = 0; v < total; ++v) expect[v % 16] += v;
  EXPECT_EQ(kv.table(), expect);
}

// Every delta_compact_every-th epoch is a full snapshot that supersedes the
// chain; the old chain's directories are garbage-collected at its commit.
TEST(RtDeltaTest, CompactionWritesFullEpochAndCollectsTheChain) {
  auto feed = std::make_shared<ExternalFeed>();
  const auto cfg = delta_config(fresh_dir("ms_delta_compact"),
                                /*compact_every=*/2);

  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 50);
    std::uint64_t done = 0;
    // full, delta, delta, full(compaction) — the compacting commit GCs the
    // chained delta epochs but keeps the superseded chain's base as a
    // fallback rung (retain_fallback_epochs), so two full epochs survive.
    for (int i = 0; i < 4; ++i) {
      wait_drained(engine, engine.sink_tuples() + 50);
      ASSERT_TRUE(take_checkpoint(runtime, done));
      ++done;
    }
    ASSERT_TRUE(wait_for([&cfg] {
      return committed_epochs(cfg.dir).size() == 2;  // GC ran
    }));
    EXPECT_EQ(count_files_with_extension(cfg.dir, ".delta"), 0);
    EXPECT_EQ(count_files_with_extension(cfg.dir, ".ckpt"), 6);

    runtime.simulate_crash();
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
}

// Non-delta modes must keep writing plain full snapshots even when a
// delta-capable operator sits in the graph.
TEST(RtDeltaTest, SrcApModeIgnoresDeltaSupport) {
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcAp;
  cfg.dir = fresh_dir("ms_delta_off");
  cfg.params.periodic = false;
  cfg.codec = int_codec();

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  wait_drained(engine, 50);
  ASSERT_TRUE(take_checkpoint(runtime, 0));
  wait_drained(engine, engine.sink_tuples() + 50);
  ASSERT_TRUE(take_checkpoint(runtime, 1));
  feed->paused.store(true);
  wait_quiescent(engine);
  runtime.stop();

  EXPECT_EQ(count_files_with_extension(cfg.dir, ".delta"), 0);
}

// --- the source log on the recovery path ------------------------------------

/// Counts source-log reads; injects nothing.
class LogReadCounter final : public storage::FaultInjector {
 public:
  storage::WriteFaultSpec write_fault(const std::string&,
                                      storage::ArtifactKind) override {
    return {};
  }
  storage::ReadFaultSpec read_fault(const std::string&,
                                    storage::ArtifactKind kind) override {
    if (kind == storage::ArtifactKind::kSourceLog) reads.fetch_add(1);
    return {};
  }
  std::atomic<int> reads{0};
};

// The log keeps records below the tip's boundary (the chain's and the
// fallback rung's boundaries bound truncation), yet construction plus
// recover() read it exactly once and decode exactly the records replayed.
TEST(RtDeltaTest, RecoveryReadsTheLogOnceAndDecodesOnlyTheReplay) {
  auto feed = std::make_shared<ExternalFeed>();
  auto cfg = delta_config(fresh_dir("ms_delta_logonce"), /*compact_every=*/2);
  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    // full, delta, delta, full (the first base becomes a fallback rung),
    // delta — then a suffix past the tip.
    for (std::uint64_t done = 0; done < 5; ++done) {
      ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 50));
      ASSERT_TRUE(take_checkpoint(runtime, done));
    }
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
    runtime.simulate_crash();
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  auto decodes = std::make_shared<std::atomic<int>>(0);
  const auto decode = cfg.codec.decode_payload;
  cfg.codec.decode_payload = [decode, decodes](BinaryReader& r) {
    decodes->fetch_add(1);
    return decode(r);
  };
  LogReadCounter counter;
  cfg.disk_faults = &counter;
  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  const int decoded = decodes->load();
  EXPECT_EQ(counter.reads.load(), 1);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);

  const std::string manifest = cfg.dir + "/epoch_" +
                               std::to_string(runtime.last_durable_epoch()) +
                               "/MANIFEST";
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(storage::read_artifact(manifest, storage::ArtifactKind::kManifest,
                                     storage::DurableOptions{}, &payload)
                  .is_ok());
  const auto tip = decode_manifest(payload, manifest);
  ASSERT_TRUE(tip.is_ok());
  const std::uint64_t boundary = tip.value().ops[0].boundary;
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(storage::read_raw(cfg.dir + "/source_0.log",
                                storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &bytes)
                  .is_ok());
  const auto scanned = scan_log_bytes(bytes.data(), bytes.size(), "log");
  ASSERT_TRUE(scanned.is_ok()) << scanned.status().to_string();
  const LogScan& scan = scanned.value();
  ASSERT_FALSE(scan.frames.empty());
  EXPECT_LT(scan.frames.front().first, boundary)
      << "the log kept nothing below the tip's boundary";
  EXPECT_EQ(decoded, total - static_cast<std::int64_t>(boundary));
  EXPECT_GT(decoded, 0);
}

// --- chain-breaking edge cases ---------------------------------------------

// A manifest write failure discards an epoch whose serialize cuts already
// advanced the operators' dirty baselines. The runtime must rebase (next
// epoch full) — if it kept chaining deltas on the older durable tip, the
// mutations captured only in the discarded epoch would be silently lost.
TEST(RtDeltaTest, ManifestWriteFailureForcesFullRebase) {
  auto feed = std::make_shared<ExternalFeed>();
  const auto cfg = delta_config(fresh_dir("ms_delta_manifest_fail"));
  const std::string epoch3 = cfg.dir + "/epoch_3";

  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    // All three op blobs of epoch 3 land before the commit; replacing the
    // epoch directory with a regular file right after the last blob's
    // kCheckpointDone makes exactly the MANIFEST write fail (ENOTDIR on its
    // temp file) — the deterministic stand-in for a full disk at the worst
    // instant. The probe fires on the control thread just before the
    // report that commits, so the swap is ordered strictly before the
    // manifest write.
    std::atomic<int> epoch3_done{0};
    runtime.add_probe([&](FtPoint p, int, std::uint64_t id) {
      if (p == FtPoint::kCheckpointDone && id == 3 &&
          epoch3_done.fetch_add(1) + 1 == 3) {
        fs::remove_all(epoch3);
        std::ofstream(epoch3, std::ios::binary).put('x');
      }
    });
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));  // full base
    wait_drained(engine, engine.sink_tuples() + 100);
    ASSERT_TRUE(take_checkpoint(runtime, 1));  // delta
    // Window of mutations that will exist ONLY in doomed epoch 3's delta.
    wait_drained(engine, engine.sink_tuples() + 100);
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    // The coordinator counts the epoch complete (every unit reported) even
    // though the commit's manifest write fails: nothing became durable.
    ASSERT_TRUE(take_checkpoint(runtime, 2));
    EXPECT_EQ(runtime.last_durable_epoch(), 2u);
    EXPECT_FALSE(fs::exists(epoch3)) << "orphaned failed epoch not cleaned";
    // The chain is broken: the next epoch must be a full snapshot, which
    // supersedes the old base+delta pair (GCing the delta, keeping the old
    // base as a fallback rung). A delta here would chain on epoch 2 and
    // lose the epoch-3 window forever.
    ASSERT_TRUE(take_checkpoint(runtime, 3));
    EXPECT_EQ(runtime.last_durable_epoch(), 4u);
    EXPECT_EQ(committed_epochs(cfg.dir).size(), 2u);
    runtime.simulate_crash();
    runtime.stop();
  }

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  const auto& kv = static_cast<const KeyedDeltaSum&>(engine.op(kKvOp));
  std::map<std::int64_t, std::int64_t> expect;
  for (std::int64_t v = 0; v < total; ++v) expect[v % 16] += v;
  EXPECT_EQ(kv.table(), expect);
}

// An unreadable mid-chain manifest must fail recovery WITHOUT deleting the
// chain's intact epochs: a transient read error (EIO, fd exhaustion) is
// retryable only if the bytes survive the failed attempt. (Corrupt *bytes*
// — a failed CRC — are a different story: that is definitive damage, and
// the fallback drills in rt_corruption_test cover it.)
TEST(RtDeltaTest, UnreadableMidChainManifestDoesNotDeleteTheChain) {
  auto feed = std::make_shared<ExternalFeed>();
  auto cfg = delta_config(fresh_dir("ms_delta_bad_manifest"));

  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));  // full base
    wait_drained(engine, engine.sink_tuples() + 100);
    ASSERT_TRUE(take_checkpoint(runtime, 1));  // delta
    feed->paused.store(true);
    wait_quiescent(engine);
    ASSERT_TRUE(take_checkpoint(runtime, 2));  // delta (the tip)
    total = feed->cursor.load();
    runtime.simulate_crash();
    runtime.stop();
  }

  // Every read of the mid-chain manifest (epoch 2) fails EIO-style until
  // the fault clears; the bytes on disk stay intact throughout.
  failure::DiskFaultInjector faults;
  failure::DiskFaultInjector::Options match;
  match.path_contains = "epoch_2/MANIFEST";
  match.sticky = true;
  faults.arm_read(storage::ArtifactKind::kManifest, storage::ReadFault::kError,
                  /*offset=*/0, match);
  cfg.disk_faults = &faults;

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // constructor scan sees the broken walk
  ASSERT_FALSE(runtime.recover(nullptr).is_ok());
  EXPECT_GT(faults.injected(), 0);
  // Nothing was garbage-collected: the full base (unreached by the broken
  // chain walk) and both deltas are still on disk.
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_1/MANIFEST"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_3/MANIFEST"));

  // The transient fault clears: the retry must reconstruct the exact
  // pre-crash state from the preserved chain.
  faults.clear();
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
}

// --- chaos kills against the chain -----------------------------------------

struct PointName {
  template <typename ParamType>
  std::string operator()(const ::testing::TestParamInfo<ParamType>& info) const {
    std::string name = ft_point_name(point_of(info.param));
    for (char& c : name) {
      if (c == '-' || c == '+') c = '_';
    }
    return name;
  }
  static FtPoint point_of(FtPoint p) { return p; }
  template <typename P>
  static FtPoint point_of(const P& p) {
    return p.point;
  }
};

/// A kill point plus how many times it fires per completed epoch in the
/// 3-op chain (1 source + 2 downstream): the chaos trigger for "first
/// firing inside attempt N" is (N-1) * per_epoch + 1.
struct KillPoint {
  FtPoint point;
  int per_epoch;
};

// A base + one delta are durable; the process dies inside the *next* delta
// attempt at the scripted point. The torn attempt must not corrupt the
// durable chain: recovery replays base + delta + log, exactly once.
class DeltaCheckpointKillTest : public ::testing::TestWithParam<KillPoint> {};

TEST_P(DeltaCheckpointKillTest, DurableChainSurvivesKilledDeltaAttempt) {
  auto feed = std::make_shared<ExternalFeed>();
  const KillPoint kp = GetParam();
  const auto cfg = delta_config(
      fresh_dir(std::string("ms_delta_kill_") + ft_point_name(kp.point)));

  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    RtChaos chaos(&runtime);
    // Let two epochs (base + delta) complete; die at the point's first
    // firing inside the third attempt.
    chaos.crash_on(kp.point, /*hau_id=*/-1,
                   /*occurrence=*/2 * kp.per_epoch + 1);
    chaos.arm();
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));  // full base
    wait_drained(engine, engine.sink_tuples() + 100);
    ASSERT_TRUE(take_checkpoint(runtime, 1));  // delta
    wait_drained(engine, engine.sink_tuples() + 100);
    const std::uint64_t durable = runtime.last_durable_epoch();
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());  // dies inside
    ASSERT_TRUE(ms::testing::wait_for(
        [&runtime] { return runtime.crashed(); }, std::chrono::seconds(10)))
        << "kill point never reached: " << ft_point_name(kp.point);
    EXPECT_EQ(chaos.kills(), 1);
    EXPECT_EQ(runtime.last_durable_epoch(), durable);
    wait_drained(engine, engine.sink_tuples() + 50);
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolPoints, DeltaCheckpointKillTest,
    ::testing::Values(
        KillPoint{FtPoint::kTokenAlignStart, 1},   // token in flight
        KillPoint{FtPoint::kTokenReceived, 3},     // token at a port head
                                                   // (control edge included:
                                                   // sources fire it too)
        KillPoint{FtPoint::kSerializeStart, 3},    // serialize window
        KillPoint{FtPoint::kForkDone, 3},          // post-fork window
        KillPoint{FtPoint::kCheckpointWrite, 3}),  // disk I/O
    PointName());

// The process dies *during recovery from a delta chain*, in each recovery
// phase; the retry must still reconstruct base + delta exactly.
class DeltaRecoveryKillTest : public ::testing::TestWithParam<FtPoint> {};

TEST_P(DeltaRecoveryKillTest, SecondRecoveryFromChainSucceeds) {
  auto feed = std::make_shared<ExternalFeed>();
  const auto cfg = delta_config(
      fresh_dir(std::string("ms_delta_reckill_") + ft_point_name(GetParam())));

  std::int64_t total = 0;
  {
    rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));  // full base
    wait_drained(engine, engine.sink_tuples() + 100);
    ASSERT_TRUE(take_checkpoint(runtime, 1));  // delta
    wait_drained(engine, engine.sink_tuples() + 100);
    runtime.simulate_crash();
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  rt::RtEngine engine(delta_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  RtChaos chaos(&runtime);
  chaos.crash_on(GetParam());
  chaos.arm();
  const Status first = runtime.recover(nullptr);
  ASSERT_FALSE(first.is_ok());
  EXPECT_EQ(chaos.kills(), 1);
  runtime.clear_crash();
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
}

INSTANTIATE_TEST_SUITE_P(RecoveryPhases, DeltaRecoveryKillTest,
                         ::testing::Values(FtPoint::kRecoveryPhase1,
                                           FtPoint::kRecoveryPhase2,
                                           FtPoint::kRecoveryPhase3,
                                           FtPoint::kRecoveryPhase4),
                         PointName());

}  // namespace
}  // namespace ms::ft
