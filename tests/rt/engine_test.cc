#include "rt/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "../testing/test_ops.h"
#include "core/stdops.h"

namespace ms::rt {
namespace {

using ms::testing::chain_graph;
using ms::testing::IntPayload;
using ms::testing::RecordingSink;

/// Collects every delivered Snapshot (data copied out: the blob is only
/// valid during the sink call).
struct SnapshotCollector {
  std::mutex mu;
  std::map<int, std::vector<std::uint8_t>> blobs;
  std::map<int, Snapshot> meta;

  SnapshotSink sink() {
    return [this](const Snapshot& snap) {
      std::scoped_lock lk(mu);
      blobs[snap.op].assign(snap.data, snap.data + snap.size);
      Snapshot m = snap;
      m.data = nullptr;
      meta[snap.op] = m;
    };
  }

  std::size_t count() {
    std::scoped_lock lk(mu);
    return blobs.size();
  }
};

/// Polls until the epoch's snapshots have all been delivered.
bool wait_epoch_done(RtEngine& engine) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.epoch_in_flight() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return !engine.epoch_in_flight();
}

TEST(RtEngineTest, TuplesFlowOnRealThreads) {
  RtEngine engine(chain_graph(2, SimTime::millis(2)), RtConfig{});
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  engine.stop();
  EXPECT_GT(engine.sink_tuples(), 50);
  // Chain conservation: relay processed at least as many as the sink saw.
  EXPECT_GE(engine.tuples_processed(1), engine.sink_tuples());
}

TEST(RtEngineTest, ValuesArriveInOrderExactlyOnce) {
  RtEngine engine(chain_graph(1, SimTime::millis(1)), RtConfig{});
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  engine.stop();
  const auto& sink = static_cast<RecordingSink&>(engine.op(2));
  ASSERT_GT(sink.values.size(), 20u);
  for (std::size_t i = 0; i < sink.values.size(); ++i) {
    EXPECT_EQ(sink.values[i], static_cast<std::int64_t>(i));
  }
}

TEST(RtEngineTest, EpochDeliversEveryOperatorSnapshot) {
  RtEngine engine(chain_graph(2, SimTime::millis(1)), RtConfig{});
  SnapshotCollector collector;
  engine.set_snapshot_sink(collector.sink());
  // The snapshot boundary counts tapped (logged) emissions; install a tap so
  // the source's cut is meaningful.
  engine.set_source_tap([](int, int, const core::Tuple*, std::size_t) {});
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(engine.begin_epoch(1, SnapshotMode::kAsync).is_ok());
  ASSERT_TRUE(wait_epoch_done(engine));
  engine.stop();
  EXPECT_EQ(collector.count(), 4u);
  std::scoped_lock lk(collector.mu);
  for (const auto& [op, snap] : collector.meta) {
    EXPECT_EQ(snap.epoch, 1u);
    EXPECT_GT(collector.blobs[op].size(), 0u);
    if (engine.op_is_source(op)) {
      // The feed had emitted by the time the token cut the stream.
      EXPECT_GT(snap.source_boundary, 0u);
      EXPECT_GT(snap.source_next_seq, 0u);
    }
  }
}

TEST(RtEngineTest, ProcessingContinuesDuringEpoch) {
  RtEngine engine(chain_graph(2, SimTime::millis(1)), RtConfig{});
  SnapshotCollector collector;
  engine.set_snapshot_sink(collector.sink());
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto before = engine.sink_tuples();
  ASSERT_TRUE(engine.begin_epoch(1, SnapshotMode::kAsync).is_ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  engine.stop();
  EXPECT_GT(engine.sink_tuples(), before + 20);
}

TEST(RtEngineTest, RestoreRoundTripsState) {
  const core::QueryGraph graph = chain_graph(1, SimTime::millis(1));
  SnapshotCollector collector;
  RtEngine engine(chain_graph(1, SimTime::millis(1)), RtConfig{});
  engine.set_snapshot_sink(collector.sink());
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(engine.begin_epoch(1, SnapshotMode::kAsync).is_ok());
  ASSERT_TRUE(wait_epoch_done(engine));
  engine.stop();
  const auto& sink = static_cast<const RecordingSink&>(engine.op(2));
  const std::size_t at_checkpoint_upper = sink.values.size();

  RtEngine fresh(chain_graph(1, SimTime::millis(1)), RtConfig{});
  for (const auto& [op, blob] : collector.blobs) {
    ASSERT_TRUE(fresh.restore_operator(op, blob).is_ok());
  }
  auto& restored_sink = static_cast<RecordingSink&>(fresh.op(2));
  // The restored sink holds a prefix of what the original saw.
  EXPECT_FALSE(restored_sink.values.empty());
  EXPECT_LE(restored_sink.values.size(), at_checkpoint_upper);
  for (std::size_t i = 0; i < restored_sink.values.size(); ++i) {
    EXPECT_EQ(restored_sink.values[i], static_cast<std::int64_t>(i));
  }
}

TEST(RtEngineTest, MultipleEpochsSequentially) {
  RtEngine engine(chain_graph(1, SimTime::millis(1)), RtConfig{});
  SnapshotCollector collector;
  engine.set_snapshot_sink(collector.sink());
  engine.start();
  for (std::uint64_t e = 1; e <= 3; ++e) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(engine.begin_epoch(e, SnapshotMode::kAsync).is_ok());
    ASSERT_TRUE(wait_epoch_done(engine));
  }
  engine.stop();
  std::scoped_lock lk(collector.mu);
  for (const auto& [op, snap] : collector.meta) {
    EXPECT_EQ(snap.epoch, 3u) << "operator " << op;
  }
}

TEST(RtEngineTest, SyncEpochWritesBeforeTokenMovesOn) {
  RtEngine engine(chain_graph(1, SimTime::millis(1)), RtConfig{});
  SnapshotCollector collector;
  engine.set_snapshot_sink(collector.sink());
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(engine.begin_epoch(7, SnapshotMode::kSync).is_ok());
  ASSERT_TRUE(wait_epoch_done(engine));
  engine.stop();
  EXPECT_EQ(collector.count(), 3u);
}

// --- Status guards: misuse is an error return, not undefined behavior ---

TEST(RtEngineTest, EpochPreconditionsReturnStatus) {
  RtEngine engine(chain_graph(1, SimTime::millis(1)), RtConfig{});
  // Not running yet.
  EXPECT_EQ(engine.begin_epoch(1, SnapshotMode::kAsync).code(),
            StatusCode::kFailedPrecondition);
  // replay_downstream is valid on a stopped engine (recovery pre-loads the
  // preserved suffix before start()), but still validates its target.
  EXPECT_EQ(engine.replay_downstream(99, 0, {core::Tuple{}}).code(),
            StatusCode::kInvalidArgument);

  engine.start();
  // Running, but no sink installed.
  EXPECT_EQ(engine.begin_epoch(1, SnapshotMode::kAsync).code(),
            StatusCode::kFailedPrecondition);
  // Restore requires a stopped engine.
  EXPECT_EQ(engine.restore_operator(0, {}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.set_source_progress(0, 1, 1).code(),
            StatusCode::kFailedPrecondition);
  engine.stop();

  // Stopped: bad operator ids and non-sources are invalid arguments.
  EXPECT_EQ(engine.restore_operator(99, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.set_source_progress(2, 1, 1).code(),
            StatusCode::kInvalidArgument);  // the sink is not a source
}

TEST(RtEngineTest, SecondEpochWhileAligningIsUnavailable) {
  // A sink that parks the first snapshot long enough for a second
  // begin_epoch to race the alignment window.
  RtEngine engine(chain_graph(1, SimTime::millis(1)), RtConfig{});
  std::atomic<int> delivered{0};
  engine.set_snapshot_sink([&delivered](const Snapshot&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    delivered.fetch_add(1);
  });
  engine.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(engine.begin_epoch(1, SnapshotMode::kSync).is_ok());
  // The sync sink is sleeping on a worker thread; the epoch cannot have
  // fully aligned yet.
  const Status second = engine.begin_epoch(2, SnapshotMode::kSync);
  EXPECT_EQ(second.code(), StatusCode::kUnavailable);
  wait_epoch_done(engine);
  engine.stop();
  EXPECT_EQ(delivered.load(), 3);
}

/// What the source tap saw, and what each sink port received, under one
/// mutex: the tap runs on the timer thread, each sink on its worker.
struct TapLedger {
  std::mutex mu;
  std::vector<std::size_t> batch_sizes;              // n of every tap call
  std::map<int, std::vector<std::uint64_t>> tapped;  // port -> tuple ids
  std::map<int, std::size_t> received;               // port -> count
  int out_of_order = 0;  // sink tuples not the next tapped id on the port
  std::uint64_t tapped_total = 0;
  std::uint64_t tapped_at_cut = 0;
  std::uint64_t boundary = 0;
};

/// Checks, as each tuple arrives, that it is the port's next tapped id.
class LedgerSink final : public core::Operator {
 public:
  LedgerSink(std::shared_ptr<TapLedger> ledger, int port)
      : core::Operator("sink" + std::to_string(port)),
        ledger_(std::move(ledger)),
        port_(port) {}
  void process(int, const core::Tuple& t, core::OperatorContext&) override {
    std::scoped_lock lk(ledger_->mu);
    const std::vector<std::uint64_t>& ids = ledger_->tapped[port_];
    std::size_t& k = ledger_->received[port_];
    if (k >= ids.size() || ids[k] != t.id) ++ledger_->out_of_order;
    ++k;
  }

 private:
  std::shared_ptr<TapLedger> ledger_;
  int port_;
};

// The tap sees each out-edge buffer once, as a whole batch, before it is
// published: every call holds 1..max_batch tuples, their sum at a kSync cut
// (the sink runs under the source's op_mu) is the snapshot's boundary, and
// every tuple a sink receives is the next one tapped on its port.
TEST(RtEngineTest, SourceTapSeesWholeBatchesBeforeDispatch) {
  static constexpr std::int64_t kTotal = 60000;
  constexpr std::size_t kMaxBatch = 64;
  auto ledger = std::make_shared<TapLedger>();
  core::QueryGraph g;
  // 300 per tick round-robin over two ports: 150 per port, so each tick
  // flushes two full batches on the watermark and a partial one at return.
  const int src = g.add_source("src", [] {
    return std::make_unique<core::BurstSourceOperator>(
        "src", SimTime::micros(200), 300,
        [](std::int64_t seq) {
          core::Tuple t;
          t.payload = std::make_shared<IntPayload>(seq);
          return t;
        },
        kTotal);
  });
  for (int port = 0; port < 2; ++port) {
    const int sink = g.add_sink("sink" + std::to_string(port), [ledger, port] {
      return std::make_unique<LedgerSink>(ledger, port);
    });
    g.connect(src, sink);  // out port `port`
  }
  RtConfig cfg;
  cfg.max_batch = kMaxBatch;
  RtEngine engine(g, cfg);
  engine.set_source_tap([ledger](int, int port, const core::Tuple* tuples,
                                 std::size_t n) {
    std::scoped_lock lk(ledger->mu);
    ledger->batch_sizes.push_back(n);
    for (std::size_t k = 0; k < n; ++k) {
      ledger->tapped[port].push_back(tuples[k].id);
    }
    ledger->tapped_total += n;
  });
  engine.set_snapshot_sink([ledger, src](const Snapshot& snap) {
    if (snap.op != src) return;
    std::scoped_lock lk(ledger->mu);
    ledger->tapped_at_cut = ledger->tapped_total;
    ledger->boundary = snap.source_boundary;
  });
  engine.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine.sink_tuples() < kTotal / 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine.begin_epoch(1, SnapshotMode::kSync).is_ok());
  ASSERT_TRUE(wait_epoch_done(engine));
  while (engine.sink_tuples() < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.stop();

  std::scoped_lock lk(ledger->mu);
  ASSERT_EQ(engine.sink_tuples(), kTotal);
  ASSERT_FALSE(ledger->batch_sizes.empty());
  for (const std::size_t n : ledger->batch_sizes) {
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, kMaxBatch);
  }
  EXPECT_EQ(*std::max_element(ledger->batch_sizes.begin(),
                              ledger->batch_sizes.end()),
            kMaxBatch);
  EXPECT_EQ(ledger->tapped_total, static_cast<std::uint64_t>(kTotal));
  EXPECT_GT(ledger->boundary, 0u);
  EXPECT_EQ(ledger->tapped_at_cut, ledger->boundary);
  EXPECT_EQ(ledger->out_of_order, 0);
  for (int port = 0; port < 2; ++port) {
    EXPECT_EQ(ledger->received[port], ledger->tapped[port].size())
        << "port " << port;
  }
}

TEST(RtEngineTest, StopIsIdempotent) {
  RtEngine engine(chain_graph(1, SimTime::millis(5)), RtConfig{});
  engine.start();
  engine.stop();
  engine.stop();
  SUCCEED();
}

}  // namespace
}  // namespace ms::rt
