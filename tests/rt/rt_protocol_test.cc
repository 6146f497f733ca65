// The full fault-tolerance protocol on the real-threads engine: for every
// MS variant, run checkpoint -> crash -> recover -> replay and assert
// exactly-once sink contents. Also pins the crash-safety of the
// durable layout: an epoch without a manifest never existed, and restore
// after a mid-checkpoint crash loads the last *complete* epoch.
#include "ft/rt_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../testing/rt_feed.h"
#include "../testing/test_ops.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/stdops.h"
#include "ft/epoch_store.h"
#include "ft/source_log.h"
#include "ft/tracing.h"
#include "ft/verify.h"
#include "rt/engine.h"
#include "storage/durable_file.h"

namespace ms::ft {
namespace {

namespace fs = std::filesystem;
using ms::testing::ExternalFeed;
using ms::testing::feed_chain;
using ms::testing::int_codec;
using ms::testing::RecordingSink;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

/// Polls until the engine's sink count stops moving (drained) or a deadline.
void wait_drained(rt::RtEngine& engine, std::int64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine.sink_tuples() < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Polls until the sink count has been stable for `quiet_ms`.
void wait_quiescent(rt::RtEngine& engine, int quiet_ms = 150) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::int64_t last = -1;
  auto last_change = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < deadline) {
    const std::int64_t cur = engine.sink_tuples();
    if (cur != last) {
      last = cur;
      last_change = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_change >
               std::chrono::milliseconds(quiet_ms)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool read_log_file(const std::string& path, std::vector<std::uint8_t>* out) {
  return storage::read_raw(path, storage::ArtifactKind::kSourceLog,
                           storage::DurableOptions{}, out)
      .is_ok();
}

void expect_sink_exact(rt::RtEngine& engine, int sink_op, std::int64_t n) {
  const auto& sink = static_cast<const RecordingSink&>(engine.op(sink_op));
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(sink.values[static_cast<std::size_t>(i)], i)
        << "wrong/duplicated value at position " << i;
  }
}

/// The canonical drill shared by the MS-mode tests:
///  1. run, complete one application checkpoint mid-stream;
///  2. keep emitting past the boundary, then "crash" (writes stop; the
///     source log, durable before dispatch, keeps going);
///  3. pause the external feed, drain, stop — the sink has seen everything
///     but its durable state is the old epoch;
///  4. new engine + runtime on the same directory, recover, and expect the
///     sink to hold exactly 0..N-1: checkpointed prefix + replayed suffix.
void run_ms_drill(RtMode mode, const std::string& dirname) {
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = mode;
  cfg.dir = fresh_dir(dirname);
  cfg.params.periodic = false;
  cfg.codec = int_codec();

  std::int64_t total = 0;
  {
    rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                        rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 200);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(runtime.wait_checkpoints(1, SimTime::seconds(10)));
    EXPECT_GT(runtime.last_durable_epoch(), 0u);

    // Emit past the boundary, then crash: these tuples exist only in the
    // source log and the (volatile) sink.
    const std::int64_t at_ckpt = engine.sink_tuples();
    wait_drained(engine, at_ckpt + 200);
    runtime.simulate_crash();
    wait_drained(engine, engine.sink_tuples() + 50);  // log keeps growing
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
    EXPECT_EQ(engine.sink_tuples(), total);  // drained: sink saw everything
  }

  // Fresh incarnation. The crash flag lives in the dead runtime; this one
  // starts clean.
  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  RecoveryStats stats;
  ASSERT_TRUE(runtime.recover(&stats).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  EXPECT_EQ(stats.haus_recovered, engine.num_operators());
  EXPECT_GT(stats.bytes_read, 0);
  expect_sink_exact(engine, 3, total);
}

TEST(RtProtocolTest, MsSrcFullCycle) { run_ms_drill(RtMode::kSrc, "ms_rtp_src"); }

TEST(RtProtocolTest, MsSrcApFullCycle) {
  run_ms_drill(RtMode::kSrcAp, "ms_rtp_srcap");
}

TEST(RtProtocolTest, MsSrcApAaFullCycle) {
  // Same drill, but checkpoints come from the AA pipeline (observation ->
  // profiling -> execution with a forced checkpoint per period) instead of
  // a manual trigger.
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcApAa;
  cfg.dir = fresh_dir("ms_rtp_aa");
  cfg.params.periodic = true;
  cfg.params.checkpoint_period = SimTime::millis(150);
  cfg.params.state_sample_period = SimTime::millis(20);
  cfg.params.profile_periods = 1;
  cfg.params.profile_period = SimTime::millis(60);
  cfg.params.checkpoint_during_profiling = true;
  cfg.codec = int_codec();

  std::int64_t total = 0;
  {
    rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                        rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    // Three completed checkpoints means the pipeline made it through
    // observation and profiling into forced execution-phase checkpoints.
    ASSERT_TRUE(runtime.wait_checkpoints(3, SimTime::seconds(30)));
    EXPECT_GT(runtime.last_durable_epoch(), 0u);
    runtime.simulate_crash();
    wait_drained(engine, engine.sink_tuples() + 50);
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, 3, total);
}

/// feed -> relay -> sink, and relay -> agg -> to_int -> counts: a tumbling
/// aggregate with one key per tuple, so its state is a sawtooth (grows by
/// one entry per tuple, empties at every window flush). `counts` records
/// each flushed window's tuple count.
core::QueryGraph sawtooth_feed_graph(std::shared_ptr<ExternalFeed> feed) {
  core::QueryGraph g;
  const int src = g.add_source("src", [feed] {
    return std::make_unique<ms::testing::FeedSource>(
        "src", feed, SimTime::micros(200), 4);
  });
  const int relay = g.add_operator("relay", [] {
    return std::make_unique<ms::testing::RelayOperator>("relay");
  });
  const int sink = g.add_sink(
      "sink", [] { return std::make_unique<RecordingSink>("sink"); });
  const int agg = g.add_operator("agg", [] {
    return std::make_unique<core::TumblingAggregateOperator>(
        "agg", SimTime::millis(60),
        [](const core::Tuple& t) {
          return static_cast<std::uint64_t>(
              t.payload_as<ms::testing::IntPayload>()->value);
        },
        [](const core::Tuple&) { return 1.0; });
  });
  const int to_int = g.add_operator("to_int", [] {
    return std::make_unique<core::MapOperator>(
        "to_int", [](const core::Tuple& t, core::OperatorContext&) {
          const auto* s =
              t.payload_as<core::TumblingAggregateOperator::Summary>();
          core::Tuple out;
          out.wire_size = 64;
          out.payload = std::make_shared<ms::testing::IntPayload>(s->count);
          return out;
        });
  });
  const int counts = g.add_sink(
      "counts", [] { return std::make_unique<RecordingSink>("counts"); });
  g.connect(src, relay);
  g.connect(relay, sink);
  g.connect(relay, agg);
  g.connect(agg, to_int);
  g.connect(to_int, counts);
  return g;
}

TEST(RtProtocolTest, MsSrcApAaLearnsASawtoothAndRecoversExactlyOnce) {
  // The AA drill with dynamic state: observation must single out the
  // aggregate (op 3), profiling must learn a positive alert threshold from
  // its turning points, and checkpoints must reach the execution phase. A
  // crash and recovery then leave both sinks exactly-once.
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcApAa;
  cfg.dir = fresh_dir("ms_rtp_aa_sawtooth");
  cfg.params.periodic = true;
  cfg.params.checkpoint_period = SimTime::millis(300);
  cfg.params.state_sample_period = SimTime::millis(5);
  cfg.params.profile_periods = 1;
  cfg.params.profile_period = SimTime::millis(200);
  cfg.params.checkpoint_during_profiling = true;
  cfg.codec = int_codec();

  std::int64_t total = 0;
  {
    rt::RtEngine engine(sawtooth_feed_graph(feed), rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    // Two plain learning-phase checkpoints at most, so the third completed
    // one comes from the execution phase.
    ASSERT_TRUE(runtime.wait_checkpoints(3, SimTime::seconds(30)));
    runtime.simulate_crash();
    wait_drained(engine, engine.sink_tuples() + 50);
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
    // The engine's threads are joined: the controller is safe to read.
    EXPECT_EQ(runtime.aa()->dynamic_haus(), std::vector<int>{3});
    EXPECT_GT(runtime.aa()->smax(), 0.0);
    EXPECT_EQ(runtime.aa()->phase(), AaController::Phase::kExecution);
  }

  rt::RtEngine engine(sawtooth_feed_graph(feed), rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, 2, total);
  // Every tuple was counted in exactly one flushed window.
  const auto& counts = static_cast<const RecordingSink&>(engine.op(5));
  std::int64_t counted = 0;
  for (const std::int64_t c : counts.values) counted += c;
  EXPECT_EQ(counted, total);
}

TEST(RtProtocolTest, ProbeTracerCapturesCheckpointAndRecoveryPhases) {
  // The simulator's ProbeTracer on the rt probe spine: probes arrive from
  // worker, helper and timer threads, and the capture must still balance,
  // carry per-operator serialize -> disk-io spans, and show recovery as
  // phases 1-4 in sequence on the controller track.
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcAp;
  cfg.dir = fresh_dir("ms_rtp_tracer");
  cfg.params.periodic = true;
  cfg.params.checkpoint_period = SimTime::millis(40);
  cfg.codec = int_codec();

  const auto t0 = std::chrono::steady_clock::now();
  auto clock = [t0] {
    return SimTime::nanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  };
  TraceRecorder trace;
  ProbeTracer tracer(&trace, clock);

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  runtime.add_probe([&tracer](FtPoint p, int op, std::uint64_t id) {
    tracer.on(p, op, id);
  });
  ASSERT_TRUE(runtime.start().is_ok());
  ASSERT_TRUE(runtime.wait_checkpoints(2, SimTime::seconds(20)));
  runtime.simulate_crash();
  runtime.stop();
  runtime.clear_crash();
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_drained(engine, engine.sink_tuples() + 50);
  runtime.stop();
  trace.end_everything(clock());

  const std::vector<TraceEvent> events = trace.snapshot();
  const std::vector<std::string> problems = check_trace(events);
  EXPECT_TRUE(problems.empty()) << problems.front();

  const std::vector<TraceSpan> spans = pair_spans(events);
  std::vector<TraceSpan> umbrella;
  std::vector<TraceSpan> phases;
  std::map<int, std::set<std::string>> op_spans;
  for (const TraceSpan& s : spans) {
    if (s.pid != trace_track::kAppPid) continue;
    if (s.tid == trace_track::kControllerTid) {
      EXPECT_NE(s.cat, "checkpoint") << "controller span " << s.name;
      if (s.name == "recovery") {
        umbrella.push_back(s);
      } else if (s.name.starts_with("phase")) {
        phases.push_back(s);
      }
    } else {
      op_spans[s.tid - 1].insert(s.name);
    }
  }
  ASSERT_EQ(umbrella.size(), 1u);
  ASSERT_EQ(phases.size(), 4u);
  std::sort(phases.begin(), phases.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.ts_ns < b.ts_ns;
            });
  const char* kPhaseNames[] = {"phase1-reload", "phase2-read",
                               "phase3-rebuild", "phase4-reconnect"};
  const TraceSpan& rec = umbrella.front();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i].name, kPhaseNames[i]);
    EXPECT_GE(phases[i].ts_ns, rec.ts_ns);
    EXPECT_LE(phases[i].ts_ns + phases[i].dur_ns, rec.ts_ns + rec.dur_ns);
    if (i > 0) {
      EXPECT_LE(phases[i - 1].ts_ns + phases[i - 1].dur_ns, phases[i].ts_ns)
          << phases[i - 1].name << " overlaps " << phases[i].name;
    }
  }
  for (int op = 0; op < engine.num_operators(); ++op) {
    EXPECT_TRUE(op_spans[op].contains("serialize")) << "op " << op;
    EXPECT_TRUE(op_spans[op].contains("disk-io")) << "op " << op;
  }
}

TEST(RtProtocolTest, ManifestCommitIsAtomic) {
  // Crash between two operators' checkpoint writes: the epoch directory has
  // some op files but no MANIFEST, so it never existed. Recovery loads the
  // previous complete epoch and replays from its boundary.
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcAp;
  cfg.dir = fresh_dir("ms_rtp_atomic");
  cfg.params.periodic = false;
  cfg.codec = int_codec();

  std::int64_t total = 0;
  std::uint64_t first_epoch = 0;
  {
    rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                        rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    // Crash the process the moment the *second* epoch's first op file lands:
    // mid-checkpoint, part of the epoch on disk, no manifest.
    std::atomic<int> writes_done{0};
    runtime.add_probe([&](FtPoint point, int, std::uint64_t id) {
      if (point == FtPoint::kCheckpointDone && id == 2) {
        if (writes_done.fetch_add(1) == 0) runtime.simulate_crash();
      }
    });
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 150);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
    ASSERT_TRUE(runtime.wait_checkpoints(1, SimTime::seconds(10)));
    first_epoch = runtime.last_durable_epoch();
    ASSERT_GT(first_epoch, 0u);

    wait_drained(engine, engine.sink_tuples() + 150);
    ASSERT_TRUE(runtime.begin_checkpoint().is_ok());  // dies mid-flight
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(runtime.crashed());
    EXPECT_EQ(runtime.last_durable_epoch(), first_epoch);
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }
  // The second epoch's directory must not carry a manifest.
  EXPECT_FALSE(fs::exists(fs::path(cfg.dir) /
                          ("epoch_" + std::to_string(first_epoch + 1)) /
                          "MANIFEST"));

  rt::RtEngine engine(feed_chain(feed, 2, SimTime::micros(200), 4),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  // Recovery came from the first (complete) epoch.
  EXPECT_EQ(runtime.last_durable_epoch(), first_epoch);
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, 3, total);
}

// Each commit seals the source log's head once the floor — the lowest
// boundary among the committed epochs — has reached the head's first record,
// and unlinks every sealed segment the floor has passed whole. Every
// checkpoint is cut with the feed paused and the pipeline quiescent, so
// nothing appends while a commit runs and the outcome is exact: the set of
// files that survive, their index ranges, and their bytes, each the head's
// bytes as the appends wrote them.
TEST(RtProtocolTest, SourceLogTruncatesAtCommit) {
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcAp;  // full epochs; one fallback rung is retained
  cfg.dir = fresh_dir("ms_rtp_trunc");
  cfg.params.periodic = false;
  cfg.codec = int_codec();
  const std::string head = cfg.dir + "/source_0.log";
  const auto files = [&cfg] {
    std::set<std::string> out;
    for (const auto& e : fs::directory_iterator(cfg.dir)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("source_", 0) == 0) out.insert(name);
    }
    return out;
  };
  const auto log_indices = [](const std::vector<std::uint8_t>& bytes) {
    std::vector<std::uint64_t> out;
    const auto scanned = scan_log_bytes(bytes.data(), bytes.size(), "log");
    EXPECT_TRUE(scanned.is_ok()) << scanned.status().to_string();
    if (scanned.is_ok()) {
      EXPECT_FALSE(scanned.value().torn);
      for (const LogFrameView& f : scanned.value().frames) {
        for (std::uint64_t i = f.first; i < f.end(); ++i) out.push_back(i);
      }
    }
    return out;
  };
  const auto run = [](std::uint64_t first, std::uint64_t end) {
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = first; i < end; ++i) out.push_back(i);
    return out;
  };

  rt::RtEngine engine(feed_chain(feed, 1, SimTime::micros(200), 4),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.start().is_ok());
  // cuts[k] is checkpoint k + 1's boundary; heads[k] the head just before it.
  std::vector<std::uint64_t> cuts;
  std::vector<std::vector<std::uint8_t>> heads;
  const auto checkpoint = [&] {
    feed->paused.store(false);
    wait_drained(engine, engine.sink_tuples() + 100);
    feed->paused.store(true);
    wait_quiescent(engine);
    heads.emplace_back();
    EXPECT_TRUE(read_log_file(head, &heads.back()));
    const std::uint64_t done = cuts.size();
    EXPECT_TRUE(runtime.begin_checkpoint().is_ok());
    EXPECT_TRUE(runtime.wait_checkpoints(done + 1, SimTime::seconds(10)));
    const std::string manifest = cfg.dir + "/epoch_" +
                                 std::to_string(runtime.last_durable_epoch()) +
                                 "/MANIFEST";
    std::vector<std::uint8_t> payload;
    EXPECT_TRUE(storage::read_artifact(manifest,
                                       storage::ArtifactKind::kManifest,
                                       storage::DurableOptions{}, &payload)
                    .is_ok());
    const auto decoded = decode_manifest(payload, manifest);
    EXPECT_TRUE(decoded.is_ok());
    cuts.push_back(decoded.is_ok() ? decoded.value().ops[0].boundary : 0);
    EXPECT_EQ(cuts.back(), static_cast<std::uint64_t>(feed->cursor.load()))
        << "the cut is not the quiescent point";
  };
  const auto segment = [](std::uint64_t first, std::uint64_t last) {
    return "source_0." + std::to_string(first) + "-" + std::to_string(last) +
           ".log";
  };
  std::vector<std::uint8_t> bytes;

  // 1: the floor is the cut, which passes every record: sealed and unlinked.
  checkpoint();
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(log_indices(heads[0]), run(0, cuts[0]));
  EXPECT_EQ(files(), (std::set<std::string>{"source_0.log"}));
  EXPECT_EQ(fs::file_size(head), 0u);

  // 2: epoch 1 is kept as the fallback rung, so the floor stays at its cut,
  // where the head starts: the head is sealed under its range, byte for
  // byte, and kept, since every record in it is past the floor.
  checkpoint();
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(files(), (std::set<std::string>{segment(cuts[0], cuts[1] - 1),
                                            "source_0.log"}));
  ASSERT_TRUE(read_log_file(cfg.dir + "/" + segment(cuts[0], cuts[1] - 1),
                            &bytes));
  EXPECT_EQ(bytes, heads[1]);
  EXPECT_EQ(log_indices(bytes), run(cuts[0], cuts[1]));
  EXPECT_EQ(fs::file_size(head), 0u);

  // 3: epoch 1 goes and the floor moves to epoch 2's cut: the head is sealed
  // again, and the segment the floor has passed whole is unlinked. What
  // survives runs contiguously from the floor.
  checkpoint();
  ASSERT_FALSE(HasFailure());
  EXPECT_EQ(files(), (std::set<std::string>{segment(cuts[1], cuts[2] - 1),
                                            "source_0.log"}));
  ASSERT_TRUE(read_log_file(cfg.dir + "/" + segment(cuts[1], cuts[2] - 1),
                            &bytes));
  EXPECT_EQ(bytes, heads[2]);
  EXPECT_EQ(log_indices(bytes), run(cuts[1], cuts[2]));
  EXPECT_EQ(fs::file_size(head), 0u);
  const ScrubReport report = scrub_checkpoint_dir(cfg.dir);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.logs.size(), 1u);
  EXPECT_EQ(report.logs[0].first_index, cuts[1]);
  EXPECT_EQ(report.logs[0].last_index + 1, cuts[2]);
  runtime.stop();
}

TEST(RtProtocolTest, RestartedRuntimeNumbersEpochsAboveTheDirectory) {
  // One epoch number from coordinator to disk: a runtime resuming a
  // directory numbers its epochs above every epoch_<E> already there, and
  // its probes carry the same numbers as the directories it writes.
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcAp;
  cfg.dir = fresh_dir("ms_rtp_renumber");
  cfg.params.periodic = false;
  cfg.codec = int_codec();

  std::uint64_t first_tip = 0;
  {
    rt::RtEngine engine(feed_chain(feed, 1, SimTime::micros(200), 4),
                        rt::RtConfig{});
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    for (std::uint64_t n = 1; n <= 2; ++n) {
      wait_drained(engine, engine.sink_tuples() + 50);
      ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
      ASSERT_TRUE(runtime.wait_checkpoints(n, SimTime::seconds(10)));
    }
    first_tip = runtime.last_durable_epoch();
    ASSERT_GT(first_tip, 0u);
    runtime.stop();
  }

  rt::RtEngine engine(feed_chain(feed, 1, SimTime::micros(200), 4),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  std::mutex mu;
  std::set<std::uint64_t> done_ids;
  runtime.add_probe([&](FtPoint point, int, std::uint64_t id) {
    if (point != FtPoint::kCheckpointDone) return;
    std::scoped_lock lk(mu);
    done_ids.insert(id);
  });
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_drained(engine, engine.sink_tuples() + 50);
  ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
  ASSERT_TRUE(runtime.wait_checkpoints(1, SimTime::seconds(10)));
  feed->paused.store(true);
  wait_quiescent(engine);
  runtime.stop();

  const std::uint64_t tip = runtime.last_durable_epoch();
  EXPECT_GT(tip, first_tip);
  EXPECT_TRUE(fs::exists(fs::path(cfg.dir) / ("epoch_" + std::to_string(tip)) /
                         "MANIFEST"));
  std::scoped_lock lk(mu);
  EXPECT_EQ(done_ids, std::set<std::uint64_t>{tip});
}

TEST(RtProtocolTest, RuntimeGuardsReturnStatus) {
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcAp;
  cfg.dir = fresh_dir("ms_rtp_guards");
  cfg.params.periodic = false;
  cfg.codec = int_codec();

  rt::RtEngine engine(feed_chain(feed, 1, SimTime::micros(500)),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  // Stopped: no checkpoints.
  EXPECT_EQ(runtime.begin_checkpoint().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(runtime.start().is_ok());
  // Running: no starting twice, no recovery.
  EXPECT_EQ(runtime.start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(runtime.recover(nullptr).code(), StatusCode::kFailedPrecondition);
  runtime.stop();
  // Crashed: recovery refuses until the drill is cleared — with kAborted,
  // distinct from the engine-still-running precondition above, so callers
  // can tell the two refusals apart programmatically.
  runtime.simulate_crash();
  EXPECT_EQ(runtime.recover(nullptr).code(), StatusCode::kAborted);
  runtime.clear_crash();
  EXPECT_TRUE(runtime.recover(nullptr).is_ok());
  runtime.stop();
}

// Control timers outlive an engine stop, so every stop() fences off the
// periodic chain its run armed before the next start() arms another. A chain
// left running would add one initiation per period for every stop/start
// cycle.
TEST(RtProtocolTest, StopStartCyclesKeepOnePeriodicChain) {
  auto feed = std::make_shared<ExternalFeed>();
  MetricsRegistry metrics;
  RtRuntimeConfig cfg;
  cfg.mode = RtMode::kSrcAp;
  cfg.dir = fresh_dir("ms_rtp_cycles");
  cfg.params.checkpoint_period = SimTime::millis(50);
  cfg.codec = int_codec();
  cfg.metrics = &metrics;
  // Epochs far shorter than the period, so no initiation is skipped for an
  // epoch still running.
  cfg.sync_mode = storage::SyncMode::kNone;

  rt::RtEngine engine(feed_chain(feed, 1, SimTime::micros(500)),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(runtime.start().is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(7 * (cycle + 1)));
    runtime.stop();
  }
  ASSERT_TRUE(runtime.start().is_ok());
  Counter* started = metrics.counter("ft.ckpt.started");
  constexpr std::int64_t kWindowMs = 1000;
  const std::int64_t before = started->value();
  std::this_thread::sleep_for(std::chrono::milliseconds(kWindowMs));
  const std::int64_t in_window = started->value() - before;
  runtime.stop();
  EXPECT_GT(in_window, 0);
  EXPECT_LE(in_window, kWindowMs / 50 + 1) << "more than one periodic chain";
}

/// Sleeps 200 ms in every manifest write's fault hook, which runs on the
/// writing thread, and records whether the engine moved meanwhile: the sink
/// processed tuples, and the source emitted them.
class SlowManifestWrites final : public storage::FaultInjector {
 public:
  SlowManifestWrites(const rt::RtEngine* engine, const ExternalFeed* feed)
      : engine_(engine), feed_(feed) {}

  storage::WriteFaultSpec write_fault(const std::string&,
                                      storage::ArtifactKind kind) override {
    if (kind != storage::ArtifactKind::kManifest) return {};
    const std::int64_t sink0 = engine_->sink_tuples();
    const std::int64_t emitted0 = feed_->cursor.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ++delayed;
    if (engine_->sink_tuples() > sink0) ++sink_moved;
    if (feed_->cursor.load() > emitted0) ++source_moved;
    return {};
  }
  storage::ReadFaultSpec read_fault(const std::string&,
                                    storage::ArtifactKind) override {
    return {};
  }

  std::atomic<int> delayed{0};
  std::atomic<int> sink_moved{0};
  std::atomic<int> source_moved{0};

 private:
  const rt::RtEngine* engine_;
  const ExternalFeed* feed_;
};

/// Two commits whose manifest writes each take 200 ms, with a live feed:
/// neither the source nor the sink may wait for them. Then a crash past the
/// second commit, and recovery must be exact.
void run_slow_manifest_drill(RtMode mode, const std::string& dirname) {
  auto feed = std::make_shared<ExternalFeed>();
  RtRuntimeConfig cfg;
  cfg.mode = mode;
  cfg.dir = fresh_dir(dirname);
  cfg.params.periodic = false;
  cfg.codec = int_codec();

  std::int64_t total = 0;
  {
    rt::RtEngine engine(feed_chain(feed, 1, SimTime::micros(200), 4),
                        rt::RtConfig{});
    SlowManifestWrites slow(&engine, feed.get());
    cfg.disk_faults = &slow;
    RtRuntime runtime(&engine, cfg);
    ASSERT_TRUE(runtime.start().is_ok());
    wait_drained(engine, 200);
    for (std::uint64_t n = 1; n <= 2; ++n) {
      ASSERT_TRUE(runtime.begin_checkpoint().is_ok());
      ASSERT_TRUE(runtime.wait_checkpoints(n, SimTime::seconds(10)));
    }
    EXPECT_EQ(slow.delayed.load(), 2);
    EXPECT_EQ(slow.sink_moved.load(), 2)
        << "the sink waited for a manifest write";
    EXPECT_EQ(slow.source_moved.load(), 2)
        << "the source waited for a manifest write";
    wait_drained(engine, engine.sink_tuples() + 200);
    runtime.simulate_crash();
    feed->paused.store(true);
    wait_quiescent(engine);
    total = feed->cursor.load();
    runtime.stop();
  }

  cfg.disk_faults = nullptr;
  rt::RtEngine engine(feed_chain(feed, 1, SimTime::micros(200), 4),
                      rt::RtConfig{});
  RtRuntime runtime(&engine, cfg);
  ASSERT_TRUE(runtime.recover(nullptr).is_ok());
  wait_quiescent(engine);
  runtime.stop();
  expect_sink_exact(engine, 2, total);
}

TEST(RtProtocolTest, SlowManifestWriteStallsNoEngineThreadSrc) {
  run_slow_manifest_drill(RtMode::kSrc, "ms_rtp_slow_manifest_src");
}

TEST(RtProtocolTest, SlowManifestWriteStallsNoEngineThreadSrcAp) {
  run_slow_manifest_drill(RtMode::kSrcAp, "ms_rtp_slow_manifest_srcap");
}

}  // namespace
}  // namespace ms::ft
