// Batched-transport invariants of the real-threads engine: per-edge FIFO at
// every max_batch setting and across timer and process() emits, exact token
// alignment for epochs taken mid-batch, and batched-vs-unbatched
// equivalence on a fixed workload.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "../testing/test_ops.h"
#include "core/stdops.h"
#include "rt/engine.h"

namespace ms::rt {
namespace {

using ms::testing::IntPayload;
using ms::testing::RecordingSink;
using ms::testing::RelayOperator;

/// Collects snapshot blobs in memory (copied out of the borrowed buffer).
struct Collector {
  std::mutex mu;
  std::map<int, std::vector<std::uint8_t>> blobs;
  SnapshotSink sink() {
    return [this](const Snapshot& snap) {
      std::scoped_lock lk(mu);
      blobs[snap.op].assign(snap.data, snap.data + snap.size);
    };
  }
};

/// src -> relay0 -> relay1 -> sink driven by a burst source that emits
/// exactly `total` integers (0..total-1) in bursts of `burst` per tick.
core::QueryGraph burst_chain(std::int64_t total, std::int64_t burst) {
  core::QueryGraph g;
  const int src = g.add_source("src", [total, burst] {
    return std::make_unique<core::BurstSourceOperator>(
        "src", SimTime::micros(50), burst,
        [](std::int64_t seq) {
          core::Tuple t;
          t.payload = std::make_shared<IntPayload>(seq);
          return t;
        },
        total);
  });
  int prev = src;
  for (int i = 0; i < 2; ++i) {
    const int r = g.add_operator("relay" + std::to_string(i), [i] {
      return std::make_unique<RelayOperator>("relay" + std::to_string(i));
    });
    g.connect(prev, r);
    prev = r;
  }
  const int sink =
      g.add_sink("sink", [] { return std::make_unique<RecordingSink>("sink"); });
  g.connect(prev, sink);
  return g;
}

/// Polls until the sink has seen `want` tuples (the source emits a fixed
/// count, so this converges) or the deadline passes.
void wait_for_sink(RtEngine& engine, std::int64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine.sink_tuples() < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void wait_epoch_done(RtEngine& engine) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (engine.epoch_in_flight() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class BatchOrderingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchOrderingTest, PerEdgeFifoPreservedAtEveryBatchSize) {
  constexpr std::int64_t kTotal = 5000;
  RtConfig cfg;
  cfg.max_batch = GetParam();
  RtEngine engine(burst_chain(kTotal, 128), cfg);
  engine.start();
  wait_for_sink(engine, kTotal);
  engine.stop();
  auto& sink = static_cast<RecordingSink&>(engine.op(3));
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(kTotal));
  for (std::size_t i = 0; i < sink.values.size(); ++i) {
    ASSERT_EQ(sink.values[i], static_cast<std::int64_t>(i))
        << "FIFO violated at position " << i << " with max_batch "
        << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchOrderingTest,
                         ::testing::Values(1u, 7u, 4096u));

TEST(RtEngineBatchTest, StressSinkCountsMatchBatchedVsUnbatched) {
  constexpr std::int64_t kTotal = 20000;
  std::vector<std::int64_t> counts;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{64}}) {
    RtConfig cfg;
    cfg.max_batch = batch;
    cfg.queue_capacity = 256;  // force backpressure into the batched path
    RtEngine engine(burst_chain(kTotal, 512), cfg);
    engine.start();
    wait_for_sink(engine, kTotal);
    engine.stop();
    counts.push_back(engine.sink_tuples());
    auto& sink = static_cast<RecordingSink&>(engine.op(3));
    EXPECT_EQ(sink.values.size(), static_cast<std::size_t>(kTotal));
  }
  // Exactly-once delivery regardless of batching: both runs see every tuple.
  EXPECT_EQ(counts[0], kTotal);
  EXPECT_EQ(counts[0], counts[1]);
}

// An epoch begun while batches are in flight must capture exactly the
// pre-token tuples: the relay forwards everything it processed before
// forwarding the token (flush barrier), so after restore the sink's recorded
// values are precisely the relay's processed set — same count, same sum.
TEST(RtEngineBatchTest, TokenAlignmentMidBatchIsExact) {
  constexpr std::int64_t kTotal = 100000;
  RtConfig cfg;
  cfg.max_batch = 64;
  Collector collector;
  RtEngine engine(burst_chain(kTotal, 1000), cfg);
  engine.set_snapshot_sink(collector.sink());
  engine.start();
  // Begin the epoch mid-stream, while bursts keep output buffers hot.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(engine.begin_epoch(1, SnapshotMode::kAsync).is_ok());
  wait_for_sink(engine, kTotal);
  wait_epoch_done(engine);
  engine.stop();

  RtEngine fresh(burst_chain(kTotal, 1000), cfg);
  for (const auto& [op, blob] : collector.blobs) {
    ASSERT_TRUE(fresh.restore_operator(op, blob).is_ok());
  }
  const auto& relay1 = static_cast<const RelayOperator&>(fresh.op(2));
  const auto& sink = static_cast<const RecordingSink&>(fresh.op(3));
  // The sink's checkpointed history is exactly the pre-token stream the
  // upstream relay had processed: a strict prefix match, not just a bound.
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(relay1.seen()));
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < sink.values.size(); ++i) {
    ASSERT_EQ(sink.values[i], static_cast<std::int64_t>(i));
    sum += sink.values[i];
  }
  EXPECT_EQ(sum, relay1.sum());
}

// Snapshot blobs must be byte-identical however transport is batched: the
// boundary is the token position in the stream, not an artifact of
// buffering. Begin the epoch after full drain so both runs snapshot the
// same (complete) stream, then compare blobs byte for byte.
TEST(RtEngineBatchTest, SnapshotBytesIdenticalBatchedVsUnbatched) {
  constexpr std::int64_t kTotal = 8000;
  std::vector<std::map<int, std::vector<std::uint8_t>>> runs;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{256}}) {
    RtConfig cfg;
    cfg.max_batch = batch;
    Collector collector;
    RtEngine engine(burst_chain(kTotal, 500), cfg);
    engine.set_snapshot_sink(collector.sink());
    engine.start();
    wait_for_sink(engine, kTotal);
    ASSERT_TRUE(engine.begin_epoch(1, SnapshotMode::kAsync).is_ok());
    wait_epoch_done(engine);
    engine.stop();
    runs.push_back(std::move(collector.blobs));
  }
  ASSERT_EQ(runs[0].size(), 4u);
  ASSERT_EQ(runs[1].size(), 4u);
  for (int op = 0; op < 4; ++op) {
    EXPECT_EQ(runs[0][op], runs[1][op])
        << "snapshot blob differs for operator " << op;
  }
}

// Aggressive backpressure plus large batches: a flush bigger than the queue
// capacity must land in capacity-sized chunks without deadlock or reorder.
TEST(RtEngineBatchTest, BatchLargerThanQueueCapacityDrainsCleanly) {
  constexpr std::int64_t kTotal = 3000;
  RtConfig cfg;
  cfg.max_batch = 512;
  cfg.queue_capacity = 8;
  RtEngine engine(burst_chain(kTotal, 1000), cfg);
  engine.start();
  wait_for_sink(engine, kTotal);
  engine.stop();
  auto& sink = static_cast<RecordingSink&>(engine.op(3));
  ASSERT_EQ(sink.values.size(), static_cast<std::size_t>(kTotal));
  for (std::size_t i = 0; i < sink.values.size(); ++i) {
    ASSERT_EQ(sink.values[i], static_cast<std::int64_t>(i));
  }
}

/// Emits one increasing counter from two paths: process() (one value per
/// input tuple) and its own 20 µs timer. The engine runs both under the
/// operator's op_mu, so next_ needs no lock of its own.
class TimerMixer final : public core::Operator {
 public:
  TimerMixer() : core::Operator("mixer") {}

  void on_open(core::OperatorContext& ctx) override { arm(ctx); }
  void process(int, const core::Tuple&, core::OperatorContext& ctx) override {
    emit_next(ctx);
  }

 private:
  void arm(core::OperatorContext& ctx) {
    ctx.schedule(SimTime::micros(20), [this](core::OperatorContext& c) {
      emit_next(c);
      arm(c);
    });
  }
  void emit_next(core::OperatorContext& ctx) {
    core::Tuple t;
    t.payload = std::make_shared<IntPayload>(next_++);
    ctx.emit(0, std::move(t));
  }

  std::int64_t next_ = 0;
};

// Per-edge FIFO holds across emit paths: values an operator emits from a
// timer callback and from process() reach the downstream in emit order,
// because both paths append to the operator's one set of output buffers.
TEST(RtEngineBatchTest, TimerAndProcessEmitsKeepEmitOrder) {
  static constexpr std::int64_t kTotal = 200000;
  core::QueryGraph g;
  const int src = g.add_source("src", [] {
    return std::make_unique<core::BurstSourceOperator>(
        "src", SimTime::micros(50), 7,
        [](std::int64_t seq) {
          core::Tuple t;
          t.payload = std::make_shared<IntPayload>(seq);
          return t;
        },
        kTotal);
  });
  const int mixer =
      g.add_operator("mixer", [] { return std::make_unique<TimerMixer>(); });
  const int sink =
      g.add_sink("sink", [] { return std::make_unique<RecordingSink>("sink"); });
  g.connect(src, mixer);
  g.connect(mixer, sink);

  RtEngine engine(g, RtConfig{});
  engine.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (engine.tuples_processed(mixer) < kTotal &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.stop();

  const auto& values = static_cast<const RecordingSink&>(engine.op(sink)).values;
  ASSERT_GE(values.size(), static_cast<std::size_t>(kTotal));
  std::size_t inversions = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] <= values[i - 1]) ++inversions;
  }
  EXPECT_EQ(inversions, 0u) << "out of " << values.size() << " tuples";
}

}  // namespace
}  // namespace ms::rt
