// Corruption drills (ctest label: corruption): inject every class of disk
// damage — at-rest bit rot, torn log tails, power loss around the manifest
// rename — against a live delta chain, and prove the acceptance property of
// the durable tier: corrupted bytes NEVER become wrong recovered state. The
// runtime either falls back to an older verifiable epoch (and the source-log
// replay makes the result exact anyway) or returns a typed kDataLoss verdict
// with every byte left in place for msverify forensics.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../testing/rt_feed.h"
#include "../testing/test_ops.h"
#include "common/metrics_registry.h"
#include "failure/disk_fault.h"
#include "ft/epoch_store.h"
#include "ft/rt_runtime.h"
#include "ft/source_log.h"
#include "ft/verify.h"
#include "rt/engine.h"
#include "storage/durable_file.h"

namespace ms::ft {
namespace {

namespace fs = std::filesystem;
using ms::failure::DiskFaultInjector;
using ms::failure::flip_bit_in_file;
using ms::testing::ExternalFeed;
using ms::testing::FeedSource;
using ms::testing::int_codec;
using ms::testing::IntPayload;
using ms::testing::KeyedDeltaSum;
using ms::testing::RecordingSink;
using ms::testing::wait_drained;
using ms::testing::wait_for;
using ms::testing::wait_quiescent;

/// Forwards every tuple and keeps no state: the default serialize_state
/// writes nothing, so each of its checkpoint blobs holds a 0-byte payload.
class PassThrough final : public core::Operator {
 public:
  explicit PassThrough(std::string name) : core::Operator(std::move(name)) {}
  void process(int, const core::Tuple& t, core::OperatorContext& ctx) override {
    ctx.emit(0, t);
  }
};

/// Values the source emits per tick. Each tick is flushed as one batch, so
/// a failed source-log append loses exactly one tick's records.
constexpr std::int64_t kFeedBurst = 4;

/// src -> sum -> sink, or src -> sum -> pass -> sink with `pass_through`
/// (the stateless op is added last, so it is op 3).
core::QueryGraph sum_chain(std::shared_ptr<ExternalFeed> feed,
                           bool pass_through = false) {
  core::QueryGraph g;
  const int src = g.add_source("src", [feed] {
    return std::make_unique<FeedSource>("src", feed, SimTime::micros(200),
                                        kFeedBurst);
  });
  const int sum = g.add_operator("sum", [] {
    return std::make_unique<KeyedDeltaSum>("sum", 8);
  });
  const int sink =
      g.add_sink("sink", [] { return std::make_unique<RecordingSink>("sink"); });
  g.connect(src, sum);
  if (pass_through) {
    const int pass = g.add_operator(
        "pass", [] { return std::make_unique<PassThrough>("pass"); });
    g.connect(sum, pass);
    g.connect(pass, sink);
  } else {
    g.connect(sum, sink);
  }
  return g;
}

constexpr int kSumOp = 1;
constexpr int kSinkOp = 2;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

RtRuntimeConfig drill_config(const std::string& dir, MetricsRegistry* metrics,
                             int compact_every = 100) {
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcApDelta;
  cfg.dir = dir;
  cfg.params.periodic = false;
  cfg.params.delta_compact_every = compact_every;
  cfg.codec = int_codec();
  cfg.metrics = metrics;
  return cfg;
}

bool take_checkpoint(RtRuntime& runtime, std::uint64_t completed_so_far) {
  if (!runtime.begin_checkpoint().is_ok()) return false;
  return runtime.wait_checkpoints(completed_so_far + 1, SimTime::seconds(10));
}

void expect_sink_exact(rt::RtEngine& engine, std::int64_t n) {
  // On a running engine, taking the sink's operator mutex orders every value
  // it appended before the reads below.
  (void)engine.op_state_size(kSinkOp);
  const auto& sink = static_cast<const RecordingSink&>(engine.op(kSinkOp));
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(sink.values[static_cast<std::size_t>(i)], i)
        << "wrong/duplicated value at position " << i;
  }
}

void expect_table_exact(rt::RtEngine& engine, std::int64_t total) {
  (void)engine.op_state_size(kSumOp);  // as in expect_sink_exact
  const auto& sum = static_cast<const KeyedDeltaSum&>(engine.op(kSumOp));
  std::map<std::int64_t, std::int64_t> expect;
  for (std::int64_t v = 0; v < total; ++v) expect[v % 8] += v;
  EXPECT_EQ(sum.table(), expect);
}

/// Run one incarnation: base + two deltas on disk, then a clean crash with
/// the feed fenced at a known cursor. Returns the total tuple count.
std::int64_t seed_chain(std::shared_ptr<ExternalFeed> feed,
                        const RtRuntimeConfig& cfg, int checkpoints = 3,
                        bool pass_through = false) {
  rt::RtEngine engine(sum_chain(feed, pass_through), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  EXPECT_TRUE(runtime.start().is_ok());
  wait_drained(engine, 100);
  std::uint64_t done = 0;
  for (int i = 0; i < checkpoints - 1; ++i) {
    EXPECT_TRUE(take_checkpoint(runtime, done));
    ++done;
    wait_drained(engine, engine.sink_tuples() + 100);
  }
  feed->paused.store(true);
  wait_quiescent(engine);
  EXPECT_TRUE(take_checkpoint(runtime, done));
  const std::int64_t total = feed->cursor.load();
  runtime.simulate_crash();
  runtime.stop();
  return total;
}

/// Bit well inside the payload of a framed artifact.
constexpr std::uint64_t payload_bit(std::uint64_t byte = 2, int bit = 1) {
  return (storage::kArtifactHeaderSize + byte) * 8 +
         static_cast<std::uint64_t>(bit);
}

// --- at-rest bit rot against the chain -------------------------------------

// A flipped bit in a mid-chain delta poisons every epoch chained on it; the
// ladder falls back to the oldest epoch (the full base), and log replay
// still makes the result exact.
TEST(RtCorruptionTest, BitFlippedMidChainDeltaFallsBackToTheBase) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_delta"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  ASSERT_TRUE(
      flip_bit_in_file(cfg.dir + "/epoch_2/op_1.delta", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  // Both epoch 3 (chains through the damage) and epoch 2 (carries it) were
  // rejected before epoch 1 verified.
  EXPECT_GE(reg.counter("ft.recovery.fallbacks")->value(), 2);
  EXPECT_GE(reg.counter("ft.recovery.corrupt_artifacts")->value(), 1);
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// Corruption in the tip's own blob costs exactly one epoch: the intact
// base + first delta still verify.
TEST(RtCorruptionTest, CorruptTipBlobRollsBackOneEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_tip"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  ASSERT_TRUE(
      flip_bit_in_file(cfg.dir + "/epoch_3/op_1.delta", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  EXPECT_EQ(reg.counter("ft.recovery.fallbacks")->value(), 1);
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
  // The rejected tip was proven unusable and removed; the survivor chain
  // (base + delta 2) is still committed.
  EXPECT_FALSE(fs::exists(cfg.dir + "/epoch_3"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));
}

// A corrupt MANIFEST is spotted at scan time (CRC, not a parse accident):
// the epoch is classified corrupt, counted, and recovery uses the previous
// committed epoch.
TEST(RtCorruptionTest, CorruptTipManifestFallsBackToPreviousEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_manifest"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_3/MANIFEST", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // constructor scan classifies the damage
  EXPECT_GE(reg.counter("ft.scan.corrupt_manifests")->value(), 1);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 2u);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// The reason compaction keeps the superseded chain's base as a fallback
// rung: when the fresh full epoch itself rots, recovery climbs down to the
// rung instead of facing an empty directory.
TEST(RtCorruptionTest, CorruptCompactionFallsBackToTheRetainedRung) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_rung"), &reg,
                                /*compact_every=*/2);
  // full(1), delta(2), delta(3), full compaction(4) -> epoch_4 + rung epoch_1.
  const std::int64_t total = seed_chain(feed, cfg, /*checkpoints=*/4);
  ASSERT_TRUE(wait_for([&cfg] {
    return !fs::exists(cfg.dir + "/epoch_2") &&
           !fs::exists(cfg.dir + "/epoch_3");
  }));
  ASSERT_TRUE(fs::exists(cfg.dir + "/epoch_1/MANIFEST"));  // the rung

  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_4/op_1.ckpt", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 1u);
  EXPECT_GE(reg.counter("ft.recovery.fallbacks")->value(), 1);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// A compaction that commits but dies before its GC leaves full(1), delta(2),
// delta(3) and full(4) on disk. The restart scan applies the same rule as a
// commit: the deltas off the live chain go and the superseded chain's full
// base stays as the rung, so a compaction that then rots still has an epoch
// to fall back to.
TEST(RtCorruptionTest, CrashBeforeCompactionGcKeepsTheFullRung) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_gc_crash"), &reg,
                          /*compact_every=*/2);
  std::int64_t total = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    RtRuntime runtime(&engine, cfg);
    faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    for (std::uint64_t done = 0; done < 3; ++done) {
      ASSERT_TRUE(take_checkpoint(runtime, done));
      wait_drained(engine, engine.sink_tuples() + 100);
    }
    feed->paused.store(true);
    wait_quiescent(engine);
    faults.arm_write(storage::ArtifactKind::kManifest,
                     storage::WriteFault::kCrashAfterRename);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(wait_for([&runtime] { return runtime.crashed(); }))
        << "crash point never reached";
    total = feed->cursor.load();
    runtime.stop();
  }
  for (int e = 1; e <= 4; ++e) {
    ASSERT_TRUE(fs::exists(cfg.dir + "/epoch_" + std::to_string(e) +
                           "/MANIFEST"))
        << "epoch " << e;
  }
  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_4/op_1.ckpt", payload_bit()));

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // the restart scan runs the GC
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_1/MANIFEST"));
  EXPECT_FALSE(fs::exists(cfg.dir + "/epoch_2"));
  EXPECT_FALSE(fs::exists(cfg.dir + "/epoch_3"));
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 1u);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// The scrub and recovery read through one set of rules, so damage one of them
// accepts the other cannot reject. Each input damages a pristine chain of
// full(1), delta(2), delta(3); the scrub must name the damaged file, and
// recovery must reject epoch 3 the same way and come back exact from epoch 2.
TEST(RtCorruptionTest, ScrubAndRecoveryApplyOneRuleSet) {
  struct Damage {
    const char* name;
    std::string file;  // relative to the checkpoint directory
    std::function<void(const std::string& dir)> apply;
    std::int64_t corrupt_manifests;  // classified by the restart scan
  };
  const std::vector<Damage> damages = {
      // The stateless op's blob holds 0 bytes, and a missing one is still
      // a missing blob.
      {"deleted 0-byte blob", "epoch_3/op_3.ckpt",
       [](const std::string& dir) { fs::remove(dir + "/epoch_3/op_3.ckpt"); },
       0},
      // A verifiable manifest that names another epoch would hand recovery
      // that epoch's cursors.
      {"manifest naming another epoch", "epoch_3/MANIFEST",
       [](const std::string& dir) {
         fs::copy_file(dir + "/epoch_2/MANIFEST", dir + "/epoch_3/MANIFEST",
                       fs::copy_options::overwrite_existing);
       },
       1},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.name);
    auto feed = std::make_shared<ExternalFeed>();
    MetricsRegistry reg;
    const auto cfg = drill_config(fresh_dir("ms_corr_agree"), &reg);
    const std::int64_t total =
        seed_chain(feed, cfg, /*checkpoints=*/3, /*pass_through=*/true);
    const std::string target = cfg.dir + "/" + damage.file;
    ASSERT_TRUE(fs::exists(target));
    damage.apply(cfg.dir);

    const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
    EXPECT_FALSE(report.clean());
    bool named = false;
    for (const ScrubIssue& issue : report.issues) {
      named |= issue.path == target;
    }
    EXPECT_TRUE(named) << "scrub did not name " << target;

    rt::RtEngine engine(sum_chain(feed, /*pass_through=*/true),
                        rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    EXPECT_EQ(reg.counter("ft.scan.corrupt_manifests")->value(),
              damage.corrupt_manifests);
    const Status st = runtime.recover(nullptr);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(runtime.last_durable_epoch(), 2u);
    wait_quiescent(engine);
    runtime.stop();
    expect_sink_exact(engine, total);
    expect_table_exact(engine, total);
  }
}

// When EVERY copy is damaged, the runtime must not invent state: typed
// kDataLoss, and every byte still on disk for msverify forensics.
TEST(RtCorruptionTest, AllCopiesCorruptIsTypedDataLossNotWrongState) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_all"), &reg);
  (void)seed_chain(feed, cfg);

  // The base blob underpins every candidate's chain closure.
  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_1/op_1.ckpt", payload_bit()));

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  // Forensics intact: nothing was deleted on the failing path.
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_1/MANIFEST"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));
  EXPECT_TRUE(fs::exists(cfg.dir + "/epoch_3/MANIFEST"));
  // And msverify points at exactly the damaged file.
  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  ASSERT_FALSE(report.clean());
  bool flagged = false;
  for (const auto& issue : report.issues) {
    flagged |= issue.path == cfg.dir + "/epoch_1/op_1.ckpt";
  }
  EXPECT_TRUE(flagged);
}

// --- the exhaustive sweep: every artifact, one flipped bit ------------------

// For EVERY durable artifact in a committed chain, a single flipped bit must
// (a) be flagged by the scrub at exactly that file, and (b) recover to either
// the exact state or a typed kDataLoss — never a silently wrong result.
TEST(RtCorruptionTest, EveryArtifactBitFlipIsCaughtAndNeverWrongState) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry seed_reg;
  const std::string pristine = fresh_dir("ms_corr_sweep_pristine");
  const auto seed_cfg = drill_config(pristine, &seed_reg);
  const std::int64_t total = seed_chain(feed, seed_cfg);

  // Every durable file of the chain, each source-log segment included. The
  // bit lands in a segment's first batch, with batches after it, so it is
  // damage like any other, never a tear to trim (a tear is only ever the
  // head's short last frame, drilled below).
  std::vector<std::string> targets;
  int logs = 0;
  for (const auto& entry : fs::recursive_directory_iterator(pristine)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const fs::path ext = entry.path().extension();
    if (ext == ".log") {
      std::vector<std::uint8_t> bytes;
      ASSERT_TRUE(storage::read_raw(entry.path().string(),
                                    storage::ArtifactKind::kSourceLog,
                                    storage::DurableOptions{}, &bytes)
                      .is_ok());
      const auto scanned = scan_log_bytes(bytes.data(), bytes.size(), name);
      ASSERT_TRUE(scanned.is_ok()) << scanned.status().to_string();
      ASSERT_GE(scanned.value().frames.size(), 2u) << name;
      ++logs;
    }
    if (name == "MANIFEST" || ext == ".ckpt" || ext == ".delta" ||
        ext == ".log") {
      targets.push_back(fs::relative(entry.path(), pristine).string());
    }
  }
  ASSERT_GE(targets.size(), 9u);  // 3 epochs x (manifest + blobs), a log
  ASSERT_GE(logs, 1);

  for (const std::string& rel : targets) {
    MetricsRegistry reg;
    const auto cfg = drill_config(fresh_dir("ms_corr_sweep"), &reg);
    fs::copy(pristine, cfg.dir, fs::copy_options::recursive);
    const std::string target = cfg.dir + "/" + rel;
    ASSERT_TRUE(flip_bit_in_file(target, payload_bit())) << rel;

    // (a) the scrub names exactly the damaged file.
    const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
    ASSERT_FALSE(report.clean()) << rel;
    for (const auto& issue : report.issues) {
      EXPECT_EQ(issue.path, target) << "scrub flagged the wrong file";
    }

    // (b) recovery: exact or typed, never wrong, and damage is never
    // trimmed away.
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    const Status st = runtime.recover(nullptr);
    EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0) << rel;
    if (st.is_ok()) {
      wait_quiescent(engine);
      runtime.stop();
      expect_sink_exact(engine, total);
      expect_table_exact(engine, total);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << rel << ": "
                                                  << st.to_string();
    }
  }
}

// --- torn source-log tails --------------------------------------------------

// A crash mid-append leaves a half frame at the log's tail. The next
// incarnation's scan truncates to the last whole frame, counts it, and the
// replay is exact — and the scrub comes back clean afterwards (the torn
// bytes never resurface under later appends).
TEST(RtCorruptionTest, TornLogTailIsTruncatedCountedAndReplaysExactly) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_torn"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);

  // The torn tail: a frame header promising more bytes than the file holds.
  {
    std::ofstream out(cfg.dir + "/source_0.log",
                      std::ios::binary | std::ios::app);
    const char garbage[] = "\xff\xff\xff\xff\xde\xad\xbe";
    out.write(garbage, sizeof(garbage) - 1);
  }
  const ScrubReport before = scrub_checkpoint_dir(cfg.dir);
  EXPECT_FALSE(before.clean());  // msverify sees the tear too

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // constructor scan truncates the tail
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 1);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
}

// A crash mid-append cuts the head's last batch short. The scan trims the
// head to the last whole batch — every record of the cut one goes, none of
// the batches before it — and the replay is exact.
TEST(RtCorruptionTest, BatchTornMidFrameTrimsToTheLastWholeBatch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_batch_torn"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);
  const std::string log = cfg.dir + "/source_0.log";
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &bytes)
                  .is_ok());
  const auto scanned = scan_log_bytes(bytes.data(), bytes.size(), log);
  ASSERT_TRUE(scanned.is_ok()) << scanned.status().to_string();
  const LogFrameView& last = scanned.value().frames.back();
  ASSERT_EQ(last.n, static_cast<std::uint32_t>(kFeedBurst));
  const auto whole = static_cast<std::size_t>(last.records - bytes.data()) -
                     kLogBatchHeaderSize;
  fs::resize_file(log, whole + kLogBatchHeaderSize + last.size / 2);

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // constructor scan trims the batch
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 1);
  EXPECT_EQ(fs::file_size(log), whole);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
}

// The trim of a confirmed torn tail is a truncation in place, and it
// consults the disk-fault hook like any log write. A trim that fails is
// handled like a read error: the file stays byte-identical, the log gets no
// view, and recover() is retryable. Once the fault clears, the trim lands
// and the replay is exact.
TEST(RtCorruptionTest, FailedTornTailTrimKeepsTheLogAndIsRetryable) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_trimfail"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);
  const std::string log = cfg.dir + "/source_0.log";
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    const char garbage[] = "\xff\xff\xff\xff\xde\xad\xbe";
    out.write(garbage, sizeof(garbage) - 1);
  }
  std::vector<std::uint8_t> before;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &before)
                  .is_ok());

  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  DiskFaultInjector::Options sticky;
  sticky.sticky = true;
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kError, 0, sticky);
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // the constructor's trim fails
  const Status st = runtime.recover(nullptr);  // and so does recovery's
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
  std::vector<std::uint8_t> after;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &after)
                  .is_ok());
  EXPECT_EQ(after, before) << "a failed trim modified the log";
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);

  faults.clear();
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 1);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
}

// A log's first bytes are verified like any frame's: an empty file is a
// fresh log, a prefix of a frame is a frame torn at creation (torn at 0, and
// the runtime cuts it off), and a first frame whose header does not verify
// is kDataLoss whenever frames follow it or its bytes do not open with the
// magic — never a torn tail to truncate.
TEST(RtCorruptionTest, LogStartIsVerifiedLikeAnyFrame) {
  // Two batches of one record each: [first][n 1][port 0], 25 record bytes.
  std::uint8_t batch[kLogBatchHeaderSize - storage::kArtifactHeaderSize + 25] =
      {};
  batch[8] = 1;
  std::vector<std::uint8_t> two;
  for (std::uint8_t first = 0; first < 2; ++first) {
    batch[0] = first;
    const auto frame = storage::frame_artifact(
        storage::ArtifactKind::kSourceLog, batch, sizeof(batch));
    two.insert(two.end(), frame.begin(), frame.end());
  }
  std::vector<std::uint8_t> bytes;
  auto scan = scan_log_bytes(bytes.data(), bytes.size(), "empty");
  ASSERT_TRUE(scan.is_ok());
  EXPECT_FALSE(scan.value().torn);
  EXPECT_EQ(scan.value().valid_bytes, 0u);
  scan = scan_log_bytes(two.data(), two.size(), "two");
  ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
  EXPECT_EQ(scan.value().frames.size(), 2u);

  for (const std::size_t cut : {std::size_t{3}, storage::kArtifactHeaderSize}) {
    bytes.assign(two.begin(), two.begin() + static_cast<std::ptrdiff_t>(cut));
    scan = scan_log_bytes(bytes.data(), bytes.size(), "short");
    ASSERT_TRUE(scan.is_ok()) << scan.status().to_string();
    EXPECT_TRUE(scan.value().torn);
    EXPECT_EQ(scan.value().valid_bytes, 0u);
  }

  for (std::size_t byte = 0; byte < storage::kArtifactHeaderSize; ++byte) {
    bytes = two;
    bytes[byte] ^= 0x04;
    scan = scan_log_bytes(bytes.data(), bytes.size(), "flipped");
    EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss) << "byte " << byte;
  }

  // The runtime cuts a frame torn at creation off and appends behind it.
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_hdrtorn"), &reg);
  fs::create_directories(cfg.dir);
  {
    std::ofstream out(cfg.dir + "/source_0.log", std::ios::binary);
    out.write(reinterpret_cast<const char*>(two.data()), 5);
  }
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 1);
  EXPECT_EQ(fs::file_size(cfg.dir + "/source_0.log"), 0u);
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_TRUE(wait_drained(engine, 50));
  feed->paused.store(true);
  wait_quiescent(engine);
  runtime.stop();
  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.logs.size(), 1u);
  EXPECT_EQ(report.logs[0].first_index, 0u);
  EXPECT_EQ(report.logs[0].last_index + 1, report.logs[0].records);
}

// --- transient source-log read errors ----------------------------------------

// A transient read error on a source log during recovery must abort
// retryably (kUnavailable) — completing "successfully" would replay zero
// records, silently losing every tuple past the checkpoint boundary. And the
// failed read must not relabel the log's format or truncate it: the bytes
// are intact and the retry recovers exactly.
TEST(RtCorruptionTest, TransientLogReadErrorAbortsRecoveryRetryably) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_logread"), &reg);
  const std::int64_t total = seed_chain(feed, cfg);
  const auto log_size = fs::file_size(cfg.dir + "/source_0.log");

  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  DiskFaultInjector::Options sticky;
  sticky.sticky = true;
  faults.arm_read(storage::ArtifactKind::kSourceLog,
                  storage::ReadFault::kError, 0, sticky);

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // the constructor scan also fails to read
  const Status st = runtime.recover(nullptr);
  ASSERT_FALSE(st.is_ok()) << "recovery must not silently replay nothing";
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
  // The unreadable log is byte-identical: no torn-tail truncation and no
  // format relabeling happened off the failed read.
  EXPECT_EQ(fs::file_size(cfg.dir + "/source_0.log"), log_size);
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);

  // The fault clears and the same runtime recovers exactly.
  faults.clear();
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

/// One incarnation: one checkpoint, then a suffix only the log holds, then
/// a crash. Returns the total tuple count.
std::int64_t seed_log_suffix(std::shared_ptr<ExternalFeed> feed,
                             const RtRuntimeConfig& cfg) {
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  EXPECT_TRUE(runtime.start().is_ok());
  EXPECT_TRUE(wait_drained(engine, 100));
  EXPECT_TRUE(take_checkpoint(runtime, 0));
  EXPECT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
  runtime.simulate_crash();
  feed->paused.store(true);
  wait_quiescent(engine);
  const std::int64_t total = feed->cursor.load();
  runtime.stop();
  return total;
}

/// seed_log_suffix, then the constructor's scan reads the log with `fault`
/// at `offset` (one-shot). The read is damaged but the file is intact: the
/// constructor must not truncate it, and recover() must come back exact.
/// `unconfirmed` is how many torn or damaged verdicts the confirming read
/// must overturn.
void construction_read_fault_drill(const std::string& name,
                                   storage::ReadFault fault,
                                   std::uint64_t offset,
                                   std::int64_t unconfirmed) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir(name), &reg);
  const std::int64_t total = seed_log_suffix(feed, cfg);
  const auto log_size = fs::file_size(cfg.dir + "/source_0.log");

  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  faults.arm_read(storage::ArtifactKind::kSourceLog, fault, offset);

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // the constructor scan reads the damage
  EXPECT_EQ(faults.injected(), 1);
  EXPECT_EQ(fs::file_size(cfg.dir + "/source_0.log"), log_size);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);
  EXPECT_EQ(reg.counter("ft.log.torn_unconfirmed")->value(), unconfirmed);
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// A read that comes back short without an error, ending on a frame boundary,
// scans clean: it looks like a log with nothing past the header. The
// constructor must not keep that view for recover() to replay from — the
// replay would stop at the checkpoint boundary and fresh appends would reuse
// indices already in the file. The short read counts as a read error, and
// recover() reads the log again.
TEST(RtCorruptionTest, ShortLogReadAtConstructionIsNotReplayed) {
  construction_read_fault_drill("ms_corr_logshort",
                                storage::ReadFault::kShortRead, 0, 0);
}

// A flip in the first frame's magic: the log does not open with the MSDF
// magic, which is damage for that read, never a torn tail at byte 0. The
// confirming read is whole, and the constructor keeps the file and the whole
// view.
TEST(RtCorruptionTest, HeaderFlipAtConstructionIsNotTruncated) {
  construction_read_fault_drill("ms_corr_ctor_hdrflip",
                                storage::ReadFault::kBitFlip, 3, 1);
}

// A flip in a frame mid-file (byte 2000): the first read sees damage there
// (frames after it verify), the confirming read is whole, and the
// constructor keeps the file and the whole view.
TEST(RtCorruptionTest, FrameFlipAtConstructionIsNotTruncated) {
  construction_read_fault_drill("ms_corr_ctor_frameflip",
                                storage::ReadFault::kBitFlip, 16000, 1);
}

// Damage in a head batch with batches after it is not a tear. Trimming the
// head there would drop every record past the damage, records that went
// downstream before the crash, and replay the rest as if whole. Instead
// recover() returns kDataLoss, the head stays byte for byte, and the scrub
// names the same file.
TEST(RtCorruptionTest, DamagedHeadBatchIsDataLossNotATrim) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_head_damage"), &reg);
  (void)seed_log_suffix(feed, cfg);
  const std::string log = cfg.dir + "/source_0.log";
  std::vector<std::uint8_t> before;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &before)
                  .is_ok());
  const auto scanned = scan_log_bytes(before.data(), before.size(), log);
  ASSERT_TRUE(scanned.is_ok()) << scanned.status().to_string();
  ASSERT_GE(scanned.value().frames.size(), 2u);
  // A bit inside the first batch's first record.
  const std::uint64_t bit = (kLogBatchHeaderSize + 1) * 8 + 2;
  ASSERT_TRUE(flip_bit_in_file(log, bit));
  before[bit / 8] ^= 1u << (bit % 8);

  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  ASSERT_FALSE(report.clean());
  for (const ScrubIssue& issue : report.issues) {
    EXPECT_EQ(issue.path, log) << issue.detail;
  }

  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_NE(st.message().find(log), std::string::npos) << st.message();
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);
  std::vector<std::uint8_t> after;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &after)
                  .is_ok());
  EXPECT_EQ(after, before) << "recovery modified the damaged log";
}

// --- torn appends ----------------------------------------------------------------

// An append that fails partway is cut back to the file's size before it, so
// later whole frames do not sit behind a tear that the next scan would stop at
// and truncate. The append is one write per flushed batch, so the lost
// records are the whole tick's burst, a kFeedBurst-record gap in the index
// run; health() reports the window while the process lives, and after a
// restart recover() finds the hole past the boundary and returns kDataLoss.
TEST(RtCorruptionTest, TornAppendIsTrimmedBackBeforeLaterAppends) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_tornappend"), &reg);
  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  std::uint64_t k = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    ASSERT_TRUE(wait_drained(engine, 50));
    feed->paused.store(true);
    wait_quiescent(engine);
    k = static_cast<std::uint64_t>(feed->cursor.load());  // next record index
    faults.arm_write(storage::ArtifactKind::kSourceLog,
                     storage::WriteFault::kTorn, /*offset=*/5);
    feed->paused.store(false);
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 50));
    EXPECT_EQ(faults.injected(), 1);
    EXPECT_EQ(reg.counter("ft.log.append_failures")->value(), 1);
    EXPECT_EQ(runtime.health().code(), StatusCode::kDataLoss);
    runtime.simulate_crash();  // before any checkpoint
    feed->paused.store(true);
    wait_quiescent(engine);
    runtime.stop();
  }

  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  ASSERT_EQ(report.issues.size(), 1u);
  const std::string gap = "records " + std::to_string(k) + ".." +
                          std::to_string(k + kFeedBurst - 1) + " missing";
  EXPECT_NE(report.issues[0].detail.find(gap), std::string::npos)
      << report.issues[0].detail;
  EXPECT_EQ(report.issues[0].detail.find("torn"), std::string::npos)
      << report.issues[0].detail;

  cfg.disk_faults = nullptr;
  const std::string log = cfg.dir + "/source_0.log";
  std::vector<std::uint8_t> before;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &before)
                  .is_ok());
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);  // the restart scan
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);
  // That batch went downstream before the crash but is not in the log, and
  // no checkpoint boundary covers it: replaying around the hole would lose
  // it.
  const Status st = runtime.recover(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  std::vector<std::uint8_t> after;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &after)
                  .is_ok());
  EXPECT_EQ(after, before) << "recovery modified the log";
}

// --- sealed segments ---------------------------------------------------------

/// A directory whose source log has a sealed segment the tip does not need
/// but the epoch before it does.
struct SegmentSeed {
  std::int64_t total = 0;
  std::vector<std::uint64_t> cuts;  // the three epochs' boundaries
  std::string sealed;               // holds records cuts[1]..cuts[2] - 1
  std::string head;
};

/// Full epochs only, one fallback rung retained.
RtRuntimeConfig segment_config(const std::string& dir,
                               MetricsRegistry* metrics) {
  RtRuntimeConfig cfg = drill_config(dir, metrics);
  cfg.mode = RtMode::kSrcAp;
  return cfg;
}

/// Three epochs, each cut with the feed paused and the pipeline quiescent,
/// then a suffix only the head holds, then a crash. Each commit seals the
/// head, which starts at the floor: the first unlinks what it sealed, the
/// third unlinks the second's segment and keeps its own, records
/// cuts[1]..cuts[2] - 1. Epochs 2 and 3 survive.
SegmentSeed seed_segments(std::shared_ptr<ExternalFeed> feed,
                          const RtRuntimeConfig& cfg) {
  SegmentSeed seed;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  EXPECT_TRUE(runtime.start().is_ok());
  for (std::uint64_t done = 0; done < 3; ++done) {
    feed->paused.store(false);
    EXPECT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
    feed->paused.store(true);
    wait_quiescent(engine);
    EXPECT_TRUE(take_checkpoint(runtime, done));
    seed.cuts.push_back(static_cast<std::uint64_t>(feed->cursor.load()));
  }
  feed->paused.store(false);
  EXPECT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
  runtime.simulate_crash();
  feed->paused.store(true);
  wait_quiescent(engine);
  seed.total = feed->cursor.load();
  runtime.stop();
  seed.sealed = source_segment_path(cfg.dir, 0, seed.cuts[1],
                                    seed.cuts[2] - 1);
  seed.head = source_log_path(cfg.dir, 0);
  std::set<std::string> logs;
  for (const SourceLogFile& f : list_source_logs(cfg.dir)) logs.insert(f.path);
  EXPECT_EQ(logs, (std::set<std::string>{seed.sealed, seed.head}));
  return seed;
}

/// Epoch 3's blob fails verification: recovery falls back to epoch 2, whose
/// boundary lies inside the sealed segment.
void force_fallback_to_epoch_2(const RtRuntimeConfig& cfg) {
  ASSERT_TRUE(flip_bit_in_file(cfg.dir + "/epoch_3/op_1.ckpt", payload_bit()));
}

/// Records the path of every source-log read; injects nothing.
class LogReadPaths final : public storage::FaultInjector {
 public:
  storage::WriteFaultSpec write_fault(const std::string&,
                                      storage::ArtifactKind) override {
    return {};
  }
  storage::ReadFaultSpec read_fault(const std::string& path,
                                    storage::ArtifactKind kind) override {
    if (kind == storage::ArtifactKind::kSourceLog) paths.push_back(path);
    return {};
  }
  std::vector<std::string> paths;
};

// Construction reads only what the tip needs: the head, whose records start
// at the tip's cut. When the tip fails verification, the fallback to epoch 2
// reads the sealed segment its cut lies in, once, and the replay across the
// segment and the head is exact.
TEST(RtCorruptionTest, SegmentFallbackReadsOlderSealedSegments) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = segment_config(fresh_dir("ms_corr_seg_fallback"), &reg);
  const SegmentSeed seed = seed_segments(feed, cfg);
  force_fallback_to_epoch_2(cfg);

  LogReadPaths reads;
  cfg.disk_faults = &reads;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  EXPECT_EQ(reads.paths, (std::vector<std::string>{seed.head}));
  const Status st = runtime.recover(nullptr);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(runtime.last_durable_epoch(), 2u);
  EXPECT_EQ(reads.paths, (std::vector<std::string>{seed.head, seed.sealed}));
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, seed.total);
  expect_table_exact(engine, seed.total);
}

// Records missing between two segments, each whole and named for what it
// holds, are lost records once a replay needs them: kDataLoss, and the scrub
// names the segment the run resumes in.
TEST(RtCorruptionTest, SegmentGapPastTheBoundaryIsDataLoss) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = segment_config(fresh_dir("ms_corr_seg_gap"), &reg);
  const SegmentSeed seed = seed_segments(feed, cfg);
  ASSERT_GE(seed.cuts[2] - seed.cuts[1], 3u);

  // Cut the sealed segment's last batch and rename it for the rest.
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(storage::read_raw(seed.sealed, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &bytes)
                  .is_ok());
  const auto scanned = scan_log_bytes(bytes.data(), bytes.size(), seed.sealed);
  ASSERT_TRUE(scanned.is_ok()) << scanned.status().to_string();
  const auto& frames = scanned.value().frames;
  ASSERT_GE(frames.size(), 2u);
  const LogFrameView& last = frames.back();
  ASSERT_EQ(last.end(), seed.cuts[2]);
  const auto cut = static_cast<std::size_t>(last.records - bytes.data()) -
                   kLogBatchHeaderSize;
  const std::string shorter =
      source_segment_path(cfg.dir, 0, seed.cuts[1], last.first - 1);
  {
    std::ofstream out(shorter, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(cut));
  }
  fs::remove(seed.sealed);

  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].path, seed.head);
  const std::string gap = "records " + std::to_string(last.first) + ".." +
                          std::to_string(seed.cuts[2] - 1) +
                          " missing between segments";
  EXPECT_NE(report.issues[0].detail.find(gap), std::string::npos)
      << report.issues[0].detail;

  force_fallback_to_epoch_2(cfg);
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_NE(st.message().find("missing record " +
                              std::to_string(last.first)),
            std::string::npos)
      << st.message();
}

// A sealed segment was whole when it was renamed, so a tear in it is damage,
// not a crash mid-append: kDataLoss when a replay needs it, never a trim, and
// the scrub names it.
TEST(RtCorruptionTest, SegmentTornWhileSealedIsDataLoss) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = segment_config(fresh_dir("ms_corr_seg_torn"), &reg);
  const SegmentSeed seed = seed_segments(feed, cfg);
  const auto size = fs::file_size(seed.sealed);
  ASSERT_TRUE(ms::failure::truncate_file_to(seed.sealed, size - 5));

  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  ASSERT_FALSE(report.clean());
  bool named = false;
  for (const ScrubIssue& issue : report.issues) {
    EXPECT_EQ(issue.path, seed.sealed) << issue.detail;
    named |= issue.detail.find("torn sealed segment") != std::string::npos;
  }
  EXPECT_TRUE(named);

  force_fallback_to_epoch_2(cfg);
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_NE(st.message().find(seed.sealed), std::string::npos) << st.message();
  EXPECT_EQ(fs::file_size(seed.sealed), size - 5)
      << "a sealed segment's tear was trimmed";
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);
}

/// One incarnation whose second commit dies inside its seal with `fault`
/// (after the manifest landed), followed by a suffix the log keeps taking;
/// then a fresh incarnation recovers and must be exact. Full epochs, no
/// fallback rung: every commit's floor is its own cut, so each commit seals.
void crash_in_roll_drill(const std::string& name, storage::WriteFault fault,
                         bool sealed_survives) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = segment_config(fresh_dir(name), &reg);
  cfg.params.retain_fallback_epochs = 0;
  std::uint64_t cut1 = 0, cut2 = 0;
  std::int64_t total = 0;
  {
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
    ASSERT_TRUE(runtime.start().is_ok());
    ASSERT_TRUE(wait_drained(engine, 100));
    feed->paused.store(true);
    wait_quiescent(engine);
    ASSERT_TRUE(take_checkpoint(runtime, 0));  // seals 0..cut1 - 1, unlinked
    cut1 = static_cast<std::uint64_t>(feed->cursor.load());
    feed->paused.store(false);
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
    feed->paused.store(true);
    wait_quiescent(engine);
    cut2 = static_cast<std::uint64_t>(feed->cursor.load());
    faults.arm_write(storage::ArtifactKind::kSourceLog, fault);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(wait_for([&runtime] { return runtime.crashed(); }))
        << "crash point never reached";
    EXPECT_EQ(runtime.last_durable_epoch(), 2u);
    // The log takes every tuple the dead process still dispatches.
    feed->paused.store(false);
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 100));
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }
  ASSERT_TRUE(fs::exists(manifest_path(cfg.dir, 2)));
  // Records cut1..cut2 - 1 are below the committed floor either way: left in
  // the head, or sealed and, the unlink never having run, still on disk.
  const std::string sealed = source_segment_path(cfg.dir, 0, cut1, cut2 - 1);
  EXPECT_EQ(fs::exists(sealed), sealed_survives);

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(runtime.last_durable_epoch(), 2u);
  wait_quiescent(engine);
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());

  // The next commit seals the rest and unlinks everything below its cut,
  // the leftover segment included.
  Counter* unlinked = reg.counter("ft.log.segments_unlinked");
  const std::int64_t unlinked0 = unlinked->value();
  ASSERT_TRUE(take_checkpoint(runtime, 0));
  runtime.stop();
  EXPECT_FALSE(fs::exists(sealed));
  EXPECT_EQ(unlinked->value() - unlinked0, sealed_survives ? 2 : 1);
  std::set<std::string> logs;
  for (const SourceLogFile& f : list_source_logs(cfg.dir)) logs.insert(f.path);
  EXPECT_EQ(logs, (std::set<std::string>{source_log_path(cfg.dir, 0)}));
}

// Dying after the manifest landed but before the seal's rename: the head
// keeps every record, and recovery from the committed epoch is exact.
TEST(RtCorruptionTest, SegmentCrashBetweenCommitAndRollRecoversExactly) {
  crash_in_roll_drill("ms_corr_seg_crash_roll",
                      storage::WriteFault::kCrashBeforeRename,
                      /*sealed_survives=*/false);
}

// Dying after the seal's rename but before the unlink: a sealed segment
// below the floor stays on disk, recovery is exact, and the next commit
// unlinks it.
TEST(RtCorruptionTest, SegmentCrashBetweenRollAndUnlinkRecoversExactly) {
  crash_in_roll_drill("ms_corr_seg_crash_unlink",
                      storage::WriteFault::kCrashAfterRename,
                      /*sealed_survives=*/true);
}

// --- failed source-log appends -----------------------------------------------

// A failed append leaves the emitted tuple absent from the replay log. That
// window must be observable while the process is alive — counted and
// reflected in health() — and must close once a committed checkpoint
// boundary covers the lost index on every retained epoch.
TEST(RtCorruptionTest, FailedLogAppendDegradesHealthUntilCovered) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_append"), &reg,
                          /*compact_every=*/1);  // full epochs only
  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_TRUE(wait_drained(engine, 50));
  EXPECT_TRUE(runtime.health().is_ok());

  DiskFaultInjector::Options sticky;
  sticky.sticky = true;
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kError, 0, sticky);
  ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 20));
  faults.clear();
  EXPECT_GE(reg.counter("ft.log.append_failures")->value(), 1);
  EXPECT_EQ(runtime.health().code(), StatusCode::kDataLoss);

  // Checkpoints advance every retained boundary past the gap; commit-time
  // truncation then closes the window.
  std::uint64_t done = 0;
  for (int i = 0; i < 3 && !runtime.health().is_ok(); ++i) {
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 20));
    ASSERT_TRUE(take_checkpoint(runtime, done));
    ++done;
  }
  EXPECT_TRUE(runtime.health().is_ok()) << runtime.health().to_string();
  runtime.stop();
}

// A fresh log's first write is its first batch's frame, so a failed one is
// an ordinary append failure: counted, cut back to the empty file, health()
// degraded until a checkpoint boundary covers the lost records, and the next
// append starts the log again. After a crash the log still verifies and the
// replay is exact.
TEST(RtCorruptionTest, FailedFirstAppendIsAnAppendFailure) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_hdrwrite"), &reg);
  DiskFaultInjector faults;
  cfg.disk_faults = &faults;
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kError);  // one-shot: the first write
  std::int64_t total = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    ASSERT_TRUE(wait_drained(engine, 50));
    EXPECT_EQ(faults.injected(), 1);
    EXPECT_EQ(reg.counter("ft.log.append_failures")->value(), 1);
    EXPECT_EQ(runtime.health().code(), StatusCode::kDataLoss);
    ASSERT_TRUE(take_checkpoint(runtime, 0));
    EXPECT_TRUE(runtime.health().is_ok()) << runtime.health().to_string();
    ASSERT_TRUE(wait_drained(engine, engine.sink_tuples() + 50));
    runtime.simulate_crash();
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
  EXPECT_TRUE(scrub_checkpoint_dir(cfg.dir).clean());
}

// --- power loss around the manifest rename ----------------------------------

// Dying before the rename: the commit point was never reached, the epoch
// directory is incomplete, and the next incarnation discards it and recovers
// from the previous epoch — the log window covers the difference.
TEST(RtCorruptionTest, PowerLossBeforeManifestRenameLosesOnlyTheEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_preloss"), &reg);

  std::int64_t total = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    RtRuntime runtime(&engine, cfg);
    faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));
    wait_drained(engine, engine.sink_tuples() + 100);
    feed->paused.store(true);
    wait_quiescent(engine);
    faults.arm_write(storage::ArtifactKind::kManifest,
                     storage::WriteFault::kCrashBeforeRename);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(wait_for([&runtime] { return runtime.crashed(); }))
        << "crash point never reached";
    EXPECT_EQ(runtime.last_durable_epoch(), 1u);
    total = feed->cursor.load();
    runtime.stop();
  }
  ASSERT_FALSE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 1u);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// Dying right after the rename: the commit landed even though the writer
// never observed it. The next incarnation finds the epoch committed and
// recovers from it — the rename really is the commit point, in both
// directions.
TEST(RtCorruptionTest, PowerLossAfterManifestRenameCommitsTheEpoch) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  auto cfg = drill_config(fresh_dir("ms_corr_postloss"), &reg);

  std::int64_t total = 0;
  {
    rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
    DiskFaultInjector faults;
    cfg.disk_faults = &faults;
    RtRuntime runtime(&engine, cfg);
    faults.set_crash_hook([&runtime] { runtime.simulate_crash(); });
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 100);
    ASSERT_TRUE(take_checkpoint(runtime, 0));
    wait_drained(engine, engine.sink_tuples() + 100);
    feed->paused.store(true);
    wait_quiescent(engine);
    faults.arm_write(storage::ArtifactKind::kManifest,
                     storage::WriteFault::kCrashAfterRename);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(wait_for([&runtime] { return runtime.crashed(); }))
        << "crash point never reached";
    total = feed->cursor.load();
    runtime.stop();
  }
  ASSERT_TRUE(fs::exists(cfg.dir + "/epoch_2/MANIFEST"));

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  EXPECT_EQ(runtime.last_durable_epoch(), 2u);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, total);
  expect_table_exact(engine, total);
}

// --- files without the checksummed framing -----------------------------------

/// Strip the MSDF frame from an artifact, leaving the pre-checksum file.
void strip_frame(const std::string& path, storage::ArtifactKind kind) {
  std::vector<std::uint8_t> payload;
  const Status st = storage::read_artifact(path, kind,
                                           storage::DurableOptions{}, &payload);
  ASSERT_TRUE(st.is_ok()) << path << ": " << st.to_string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
}

/// Rewrite a log (an MSDF frame per batch) as the pre-checksum format
/// ([len][batch]...).
void downgrade_log(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(storage::read_raw(path, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &bytes)
                  .is_ok());
  const auto scanned = scan_log_bytes(bytes.data(), bytes.size(), path);
  ASSERT_TRUE(scanned.is_ok()) << scanned.status().to_string();
  const LogScan& scan = scanned.value();
  ASSERT_FALSE(scan.torn);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const LogFrameView& f : scan.frames) {
    // The batch: the frame's payload.
    const std::uint8_t* batch =
        f.records - (kLogBatchHeaderSize - storage::kArtifactHeaderSize);
    const auto len = static_cast<std::uint32_t>(f.records + f.size - batch);
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write(reinterpret_cast<const char*>(batch),
              static_cast<std::streamsize>(len));
  }
}

// A checkpoint directory in the pre-checksum layout (no MSDF headers, no
// CRCs) carries nothing that verifies its bytes. Every
// file is damage, not data: the scrub names each one, recovery returns
// kDataLoss instead of restoring unverified state, and the log it could not
// verify stays on disk byte for byte.
TEST(RtCorruptionTest, PreChecksumDirectoryIsTypedDataLoss) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_prechecksum"), &reg);
  (void)seed_chain(feed, cfg);

  std::vector<std::string> stripped;
  for (const auto& entry : fs::recursive_directory_iterator(cfg.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = entry.path().string();
    const std::string name = entry.path().filename().string();
    if (name == "MANIFEST") {
      strip_frame(path, storage::ArtifactKind::kManifest);
    } else if (entry.path().extension() == ".ckpt") {
      strip_frame(path, storage::ArtifactKind::kCheckpoint);
    } else if (entry.path().extension() == ".delta") {
      strip_frame(path, storage::ArtifactKind::kDelta);
    } else if (entry.path().extension() == ".log") {
      downgrade_log(path);
    } else {
      continue;
    }
    stripped.push_back(path);
  }
  ASSERT_GT(stripped.size(), 3u);

  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  EXPECT_FALSE(report.clean());
  std::set<std::string> named;
  for (const ScrubIssue& issue : report.issues) named.insert(issue.path);
  for (const std::string& path : stripped) {
    EXPECT_EQ(named.count(path), 1u) << "scrub did not name " << path;
  }

  const std::string log = cfg.dir + "/source_0.log";
  std::vector<std::uint8_t> before;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &before)
                  .is_ok());
  rt::RtEngine engine(sum_chain(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  const Status st = runtime.recover(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_EQ(reg.counter("ft.log.torn_frames")->value(), 0);
  std::vector<std::uint8_t> after;
  ASSERT_TRUE(storage::read_raw(log, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &after)
                  .is_ok());
  EXPECT_EQ(after, before) << "the unverifiable log was modified";
}

// --- record-index runs in the scrub -------------------------------------------

// A batch missing from the middle of a log (what a truncation that trusted a
// short read would leave behind) is a run of lost records: the batches
// around it still verify, but the scrub's index run shows the gap.
TEST(RtCorruptionTest, ScrubReportsAnIndexGapAsALostRecord) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_gap"), &reg);
  (void)seed_chain(feed, cfg);
  const std::string path = cfg.dir + "/source_0.log";

  const ScrubReport before = scrub_checkpoint_dir(cfg.dir);
  ASSERT_TRUE(before.clean());
  ASSERT_EQ(before.logs.size(), 1u);
  const ScrubLog run = before.logs[0];
  EXPECT_EQ(run.path, path);
  ASSERT_GE(run.batches, 3u);
  EXPECT_EQ(run.last_index - run.first_index + 1, run.records);

  // Cut the second batch out of the file, leaving every CRC intact.
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(storage::read_raw(path, storage::ArtifactKind::kSourceLog,
                                storage::DurableOptions{}, &bytes)
                  .is_ok());
  const auto scanned = scan_log_bytes(bytes.data(), bytes.size(), path);
  ASSERT_TRUE(scanned.is_ok()) << scanned.status().to_string();
  const LogFrameView victim = scanned.value().frames[1];
  const auto begin = static_cast<std::ptrdiff_t>(victim.records - bytes.data() -
                                                 kLogBatchHeaderSize);
  const auto len =
      static_cast<std::ptrdiff_t>(kLogBatchHeaderSize + victim.size);
  bytes.erase(bytes.begin() + begin, bytes.begin() + begin + len);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  const ScrubReport after = scrub_checkpoint_dir(cfg.dir);
  ASSERT_EQ(after.issues.size(), 1u);
  EXPECT_EQ(after.issues[0].path, path);
  const std::string missing = std::to_string(victim.first) + ".." +
                              std::to_string(victim.end() - 1);
  EXPECT_NE(after.issues[0].detail.find(missing), std::string::npos)
      << after.issues[0].detail;
  ASSERT_EQ(after.logs.size(), 1u);
  EXPECT_EQ(after.logs[0].batches, run.batches - 1);
  EXPECT_EQ(after.logs[0].records, run.records - victim.n);
  EXPECT_EQ(after.logs[0].first_index, run.first_index);
  EXPECT_EQ(after.logs[0].last_index, run.last_index);
}

// --- the happy path, for contrast -------------------------------------------

TEST(RtCorruptionTest, CleanDirectoryScrubsClean) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry reg;
  const auto cfg = drill_config(fresh_dir("ms_corr_clean"), &reg);
  (void)seed_chain(feed, cfg);

  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  EXPECT_TRUE(report.clean()) << (report.issues.empty()
                                      ? ""
                                      : report.issues.front().path + ": " +
                                            report.issues.front().detail);
  EXPECT_EQ(report.epochs, 3);
  EXPECT_GT(report.artifacts, 0);
  EXPECT_GT(report.verified_bytes, 0u);
  // A directory that never existed is vacuously clean, not an error.
  EXPECT_TRUE(scrub_checkpoint_dir("/nonexistent/nowhere").clean());
}

}  // namespace
}  // namespace ms::ft
