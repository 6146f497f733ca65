// Test fixtures for the real-threads protocol tests: an external feed that
// survives engine rebuilds, a source operator reading from it, and the
// IntPayload codec that lets preserved tuples cross a process restart.
//
// Exactly-once accounting across a crash drill needs the *external world* to
// be separable from the source operator: the feed's cursor is shared state
// that keeps moving forward no matter how many engine incarnations come and
// go, and pausing it fences the drill — no values are produced between the
// "crash" and the post-recovery assertions, so the expected sink contents
// are exactly 0..cursor-1, each value once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "core/query_graph.h"
#include "ft/rt_runtime.h"
#include "test_ops.h"

namespace ms::testing {

/// The external world: a monotonic value cursor shared across engine
/// incarnations (a sensor keeps sensing while processes restart).
struct ExternalFeed {
  std::atomic<std::int64_t> cursor{0};
  std::atomic<std::int64_t> limit{std::numeric_limits<std::int64_t>::max()};
  std::atomic<bool> paused{false};
};

/// Source emitting the feed's next value every `period` (in bursts of
/// `burst`). Its serialized operator state mirrors CounterSource: the
/// external feed does not rewind on restore.
class FeedSource final : public core::Operator {
 public:
  FeedSource(std::string name, std::shared_ptr<ExternalFeed> feed,
             SimTime period, std::int64_t burst = 1)
      : core::Operator(std::move(name)),
        feed_(std::move(feed)),
        period_(period),
        burst_(burst) {}

  void on_open(core::OperatorContext& ctx) override { arm(ctx); }
  void process(int, const core::Tuple&, core::OperatorContext&) override {}

  Bytes state_size() const override { return 16; }
  void serialize_state(BinaryWriter& w) const override {
    w.write<std::int64_t>(feed_->cursor.load());
  }
  void deserialize_state(BinaryReader& r) override {
    (void)r.read<std::int64_t>();  // the feed moves only forward
  }
  void clear_state() override {}

 private:
  void arm(core::OperatorContext& ctx) {
    ctx.schedule(period_, [this](core::OperatorContext& c) {
      if (!feed_->paused.load()) {
        for (std::int64_t i = 0; i < burst_; ++i) {
          const std::int64_t v = feed_->cursor.load();
          if (v >= feed_->limit.load()) break;
          feed_->cursor.store(v + 1);
          core::Tuple t;
          t.wire_size = 64;
          t.payload = std::make_shared<IntPayload>(v, 64);
          c.emit(0, std::move(t));
        }
      }
      arm(c);
    });
  }

  std::shared_ptr<ExternalFeed> feed_;
  SimTime period_;
  std::int64_t burst_;
};

/// Codec for IntPayload source-log records (value + declared size).
inline ft::TupleCodec int_codec() {
  ft::TupleCodec codec;
  codec.encode_payload = [](const core::Payload& p, BinaryWriter& w) {
    const auto& ip = static_cast<const IntPayload&>(p);
    w.write<std::int64_t>(ip.value);
    w.write<std::int64_t>(ip.byte_size());
  };
  codec.decode_payload =
      [](BinaryReader& r) -> std::shared_ptr<const core::Payload> {
    const auto value = r.read<std::int64_t>();
    const auto declared = r.read<std::int64_t>();
    return std::make_shared<IntPayload>(value, declared);
  };
  return codec;
}

/// Poll `pred` every millisecond until it holds or `timeout` elapses.
/// Returns whether the predicate held. Replaces fixed sleep_for waits in the
/// real-threads tests: the test proceeds the moment the condition is true
/// (fast machines don't idle) and slow machines get the full window instead
/// of a flaky margin.
inline bool wait_for(const std::function<bool()>& pred,
                     std::chrono::milliseconds timeout =
                         std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Wait until the feed has produced at least `n` values beyond `from`.
inline bool wait_feed_past(const ExternalFeed& feed, std::int64_t target,
                           std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000)) {
  return wait_for([&feed, target] { return feed.cursor.load() >= target; },
                  timeout);
}

/// Wait until the engine's sink has seen at least `want` tuples.
inline bool wait_drained(rt::RtEngine& engine, std::int64_t want,
                         std::chrono::milliseconds timeout =
                             std::chrono::milliseconds(20000)) {
  return wait_for([&engine, want] { return engine.sink_tuples() >= want; },
                  timeout);
}

/// Wait until the sink count has stopped moving for `quiet_ms` (the pipeline
/// drained whatever was in flight). A sink still moving after 20 s is a test
/// failure: the feed was left running, or the pipeline never drained.
inline void wait_quiescent(rt::RtEngine& engine, int quiet_ms = 150) {
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
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "wait_quiescent: the sink still moved after 20 s (at "
                << last << " tuples)";
}

/// feed -> relay0 -> ... -> relay(n-1) -> sink.
inline core::QueryGraph feed_chain(std::shared_ptr<ExternalFeed> feed,
                                   int relays, SimTime period,
                                   std::int64_t burst = 1) {
  core::QueryGraph g;
  const int src = g.add_source("src", [feed, period, burst] {
    return std::make_unique<FeedSource>("src", feed, period, burst);
  });
  int prev = src;
  for (int i = 0; i < relays; ++i) {
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

}  // namespace ms::testing
