// The benchmark's query graph, src -> keyed -> sink, and the benchmark-owned
// state those operators share with the benchmark.
//
// Everything the engine sees is a generated tuple: the generator (the source
// operator, ticking on the engine's single timer thread) reads its cursor and
// pacing schedule from a Feed the benchmark owns, so the cursor survives
// engine rebuilds the way an external sensor feed does. The sink checks
// exactly-once, in-order delivery of 0..N-1 as checkpointed operator state,
// and records source->sink latency into a SinkProbe the benchmark reads after
// the run. The keyed operator is the state under test: a hash-map aggregation
// with full and delta checkpoint hooks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/operator.h"
#include "core/query_graph.h"
#include "ft/rt_runtime.h"

namespace e2e {

/// The benchmark's steady clock, in nanoseconds. Due times are stamped on it,
/// so latency survives engine restarts (the engine's own clock restarts with
/// every start()).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finalizer: the per-tuple hash behind the key stream.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Key of tuple `seq` as a pure function of (seed, seq): a seeded table of
/// draws from the workload's key distribution, indexed by a hash of seq. The
/// oracle recomputes the same keys from the same seed.
class KeyStream {
 public:
  /// `zipf_s` = 0 draws keys uniformly from [0, num_keys); otherwise keys
  /// follow a Zipf law with exponent zipf_s (key 0 hottest).
  KeyStream(std::uint64_t seed, std::uint32_t num_keys, double zipf_s);

  std::uint32_t key(std::int64_t seq) const {
    return table_[mix64(static_cast<std::uint64_t>(seq) ^ salt_) & kMask];
  }
  std::uint32_t num_keys() const { return num_keys_; }

 private:
  static constexpr int kTableBits = 20;
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << kTableBits) - 1;
  std::uint32_t num_keys_;
  std::uint64_t salt_;
  std::vector<std::uint32_t> table_;
};

/// Tuple content: the generator sequence number, the key, and the due time
/// on the benchmark clock. Declared wire size 64 bytes.
struct GenPayload final : ms::core::Payload {
  GenPayload(std::int64_t seq, std::int64_t due_ns, std::uint32_t key)
      : seq(seq), due_ns(due_ns), key(key) {}
  std::int64_t seq;
  std::int64_t due_ns;
  std::uint32_t key;
  ms::Bytes byte_size() const override { return 64; }
  const char* type_name() const override { return "e2e-gen"; }
};

/// Source-log codec for GenPayload, so preserved tuples replay with their
/// original sequence number, key and due time.
ms::ft::TupleCodec gen_codec();

/// The external world the source reads. The benchmark moves `limit` to fence
/// or release the generator; the generator tick owns `cursor`.
struct Feed {
  explicit Feed(const KeyStream* keys) : keys(keys) {}

  const KeyStream* keys;
  /// Next sequence number to emit; advanced only by the generator tick.
  std::atomic<std::int64_t> cursor{0};
  /// Emit only sequence numbers below this (the benchmark's fence).
  std::atomic<std::int64_t> limit{0};
  /// Ticks that found nothing to emit: the benchmark's drain detector.
  std::atomic<std::int64_t> idle_ticks{0};
  /// Cursor recorded in the source snapshot the last recovery restored.
  std::atomic<std::int64_t> restored{0};

  /// Closed loop (paced == false): each tick emits up to kBurst tuples and
  /// re-arms at once, so the rate is whatever backpressure admits; a tuple
  /// is due when it is created. Open loop (paced): tuple pace_seq0 + k is
  /// due at pace_t0_ns + k / rate and each tick emits every tuple due by
  /// now, so the schedule never drifts with tick timing and a stall is
  /// charged to the tuples it delayed. The pacing fields are written before
  /// `paced` is set (release) and read after it is seen (acquire).
  std::atomic<bool> paced{false};
  double rate = 0.0;  // tuples per second
  std::int64_t pace_t0_ns = 0;
  std::int64_t pace_seq0 = 0;
  static constexpr int kBurst = 512;
  static constexpr std::int64_t kTickNs = 250'000;  // paced/fenced re-arm

  /// Per paced tick: how late the oldest tuple still owed was when the tick
  /// ran (0 when on schedule). Written by the timer thread while recording;
  /// read by the benchmark once the generator has idled.
  std::vector<float> lag_ms;
  std::atomic<bool> record_lag{false};

  std::int64_t due_ns(std::int64_t seq) const {
    return pace_t0_ns +
           static_cast<std::int64_t>(static_cast<double>(seq - pace_seq0) *
                                     1e9 / rate);
  }
  /// Sequence number the paced schedule has reached by `t_ns`.
  std::int64_t due_count(std::int64_t t_ns) const {
    if (t_ns <= pace_t0_ns) return pace_seq0;
    return pace_seq0 + static_cast<std::int64_t>(
                           static_cast<double>(t_ns - pace_t0_ns) * rate / 1e9);
  }
};

class GenSource final : public ms::core::Operator {
 public:
  GenSource(std::string name, std::shared_ptr<Feed> feed)
      : ms::core::Operator(std::move(name)), feed_(std::move(feed)) {}

  void on_open(ms::core::OperatorContext& ctx) override { arm(ctx, 0); }
  void process(int, const ms::core::Tuple&,
               ms::core::OperatorContext&) override {}
  ms::Bytes state_size() const override { return 8; }
  // The cursor belongs to the external feed: it is recorded, never rewound
  // by a restore (replay comes from the source log).
  void serialize_state(ms::BinaryWriter& w) const override {
    w.write<std::int64_t>(feed_->cursor.load());
  }
  void deserialize_state(ms::BinaryReader& r) override {
    feed_->restored.store(r.read<std::int64_t>());
  }

 private:
  void arm(ms::core::OperatorContext& ctx, std::int64_t delay_ns);
  void tick(ms::core::OperatorContext& ctx);

  std::shared_ptr<Feed> feed_;
};

/// Per-key aggregate of the keyed operator.
struct KeyAgg {
  std::int64_t sum = 0;
  std::int64_t count = 0;
  bool operator==(const KeyAgg&) const = default;
};

/// Hash-map aggregation: per key, the sum of sequence numbers and the tuple
/// count. Forwards every tuple. Tracks keys mutated since the last
/// checkpoint cut for delta epochs.
class KeyedAgg final : public ms::core::Operator {
 public:
  struct Entry {
    KeyAgg agg;
    bool dirty = false;  // listed in dirty_ since the last cut
  };

  explicit KeyedAgg(std::string name) : ms::core::Operator(std::move(name)) {}

  void process(int, const ms::core::Tuple& t,
               ms::core::OperatorContext& ctx) override;

  ms::Bytes state_size() const override {
    return 8 + static_cast<ms::Bytes>(table_.size()) * kEntryBytes;
  }
  ms::Bytes state_delta_size() const override {
    return 8 + static_cast<ms::Bytes>(dirty_.size()) * kEntryBytes;
  }
  void serialize_state(ms::BinaryWriter& w) const override;
  void deserialize_state(ms::BinaryReader& r) override;
  void clear_state() override {
    table_.clear();
    dirty_.clear();
  }
  bool supports_delta() const override { return true; }
  void serialize_delta(ms::BinaryWriter& w) const override;
  void apply_delta(ms::BinaryReader& r) override;
  void mark_checkpointed() override;

  /// Install keys [0, num_keys) with their initial aggregates (the
  /// workload's standing state). Engine stopped.
  void prefill(std::uint32_t num_keys);
  static KeyAgg prefill_value(std::uint32_t key) {
    return KeyAgg{static_cast<std::int64_t>(key), 1};
  }

  const std::unordered_map<std::uint32_t, Entry>& table() const {
    return table_;
  }

 private:
  static constexpr ms::Bytes kEntryBytes = 4 + 8 + 8;
  void read_entries(ms::BinaryReader& r);

  std::unordered_map<std::uint32_t, Entry> table_;
  /// Keys mutated since the last cut, each listed once.
  std::vector<std::uint32_t> dirty_;
};

/// One sampled tuple: its due time on the benchmark clock and its
/// source->sink latency.
struct LatencySample {
  std::int64_t due_ns;
  float ms;
};

/// Latency samples and the exactly-once mirror the sink shares with the
/// benchmark. Written by the sink's worker thread; the benchmark reads the atomics
/// at any time and the rest once the sink has caught up and sampling is off.
struct SinkProbe {
  /// Mirror of the sink's next expected sequence number.
  std::atomic<std::int64_t> next{0};
  /// Highest sequence number ever processed + 1, across restarts: a tuple's
  /// latency is recorded once, at its first processing.
  std::int64_t high_water = 0;
  /// Only tuples due at or after this instant are sampled.
  std::atomic<std::int64_t> sample_from_ns{
      std::numeric_limits<std::int64_t>::max()};
  /// Sample one tuple in 2^sample_shift (by sequence number).
  int sample_shift = 0;
  /// In due-time order: the sink sees sequence numbers in order, and due
  /// times never decrease along them.
  std::vector<LatencySample> latency;
};

/// Checks exactly-once, in-order delivery: the chain is FIFO per edge, so
/// the sink must see 0, 1, 2, ... with no duplicate and no gap, across any
/// number of crash/recover cycles. next_/dups_/gaps_ are checkpointed state.
class CheckSink final : public ms::core::Operator {
 public:
  CheckSink(std::string name, std::shared_ptr<SinkProbe> probe)
      : ms::core::Operator(std::move(name)), probe_(std::move(probe)) {}

  void process(int, const ms::core::Tuple& t,
               ms::core::OperatorContext& ctx) override;
  ms::Bytes state_size() const override { return 24; }
  void serialize_state(ms::BinaryWriter& w) const override {
    w.write(next_);
    w.write(dups_);
    w.write(gaps_);
  }
  void deserialize_state(ms::BinaryReader& r) override {
    next_ = r.read<std::int64_t>();
    dups_ = r.read<std::int64_t>();
    gaps_ = r.read<std::int64_t>();
    probe_->next.store(next_);
  }
  void clear_state() override {
    next_ = dups_ = gaps_ = 0;
    probe_->next.store(0);
  }

  std::int64_t next() const { return next_; }
  std::int64_t duplicates() const { return dups_; }
  std::int64_t gaps() const { return gaps_; }

 private:
  std::shared_ptr<SinkProbe> probe_;
  std::int64_t next_ = 0;
  std::int64_t dups_ = 0;
  std::int64_t gaps_ = 0;
};

/// Operator ids in make_graph().
enum Op : int { kSrc = 0, kKeyed = 1, kSink = 2 };

ms::core::QueryGraph make_graph(std::shared_ptr<Feed> feed,
                                std::shared_ptr<SinkProbe> probe);

}  // namespace e2e
