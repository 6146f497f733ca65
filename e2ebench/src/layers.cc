#include "layers.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/rng.h"
#include "ops.h"
#include "stats.h"

namespace e2e {

using ms::ft::FtPoint;

// --- probe spans -------------------------------------------------------------

void ProbeLog::attach(ms::ft::RtRuntime* rt) {
  detach();
  int inc = 0;
  {
    std::scoped_lock lk(mu_);
    inc = ++incarnation_;
    num_ops_[inc] = rt->num_units();
  }
  rt->add_probe([this, inc](FtPoint point, int unit, std::uint64_t id) {
    record(point, unit, id, inc);
  });
  stop_.store(false);
  watcher_ = std::thread([this, rt, inc] {
    std::uint64_t last = rt->last_durable_epoch();
    while (!stop_.load()) {
      const std::uint64_t e = rt->last_durable_epoch();
      if (e != last) {
        last = e;
        std::scoped_lock lk(mu_);
        commits_.emplace_back(inc, now_ns());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
}

void ProbeLog::detach() {
  stop_.store(true);
  if (watcher_.joinable()) watcher_.join();
}

void ProbeLog::clear() {
  std::scoped_lock lk(mu_);
  points_.clear();
  commits_.clear();
}

void ProbeLog::record(FtPoint point, int unit, std::uint64_t id, int inc) {
  switch (point) {
    case FtPoint::kTokenAlignStart:
    case FtPoint::kAlignDone:
    case FtPoint::kSerializeStart:
    case FtPoint::kForkDone:
    case FtPoint::kCheckpointWrite:
    case FtPoint::kCheckpointDone:
      break;
    default:
      return;  // recovery phases are timed by the benchmark around recover()
  }
  const std::int64_t t = now_ns();
  std::scoped_lock lk(mu_);
  points_.push_back(Point{t, point, unit, id, inc});
}

std::vector<EpochSpans> ProbeLog::epochs() const {
  struct Acc {
    std::int64_t init = -1;
    std::map<int, std::int64_t> align_done, ser_start, ser_done, write_start,
        write_done;
  };
  std::scoped_lock lk(mu_);
  std::map<std::pair<int, std::uint64_t>, Acc> by_epoch;
  for (const Point& p : points_) {
    Acc& a = by_epoch[{p.incarnation, p.id}];
    switch (p.point) {
      case FtPoint::kTokenAlignStart:
        if (p.unit < 0) a.init = p.t_ns;
        break;
      case FtPoint::kAlignDone:
        a.align_done[p.unit] = p.t_ns;
        break;
      case FtPoint::kSerializeStart:
        a.ser_start[p.unit] = p.t_ns;
        break;
      case FtPoint::kForkDone:
        a.ser_done[p.unit] = p.t_ns;
        break;
      case FtPoint::kCheckpointWrite:
        a.write_start[p.unit] = p.t_ns;
        break;
      case FtPoint::kCheckpointDone:
        a.write_done[p.unit] = p.t_ns;
        break;
      default:
        break;
    }
  }
  // Longest start->end span over the operators that recorded both points.
  const auto slowest = [](const std::map<int, std::int64_t>& start,
                          const std::map<int, std::int64_t>& end) {
    double worst = -1;
    for (const auto& [op, t1] : end) {
      const auto it = start.find(op);
      if (it != start.end()) {
        worst = std::max(worst, static_cast<double>(t1 - it->second) / 1e6);
      }
    }
    return worst;
  };
  std::vector<EpochSpans> out;
  for (const auto& [key, a] : by_epoch) {
    const auto ops = num_ops_.find(key.first);
    if (a.init < 0 || ops == num_ops_.end() ||
        static_cast<int>(a.write_done.size()) != ops->second) {
      continue;  // initiated before the last clear(), or never completed
    }
    EpochSpans s;
    std::int64_t aligned = a.init;
    for (const auto& [op, t] : a.align_done) aligned = std::max(aligned, t);
    s.align_ms = static_cast<double>(aligned - a.init) / 1e6;
    s.serialize_ms = slowest(a.ser_start, a.ser_done);
    s.write_ms = slowest(a.write_start, a.write_done);
    std::int64_t last_done = 0;
    for (const auto& [op, t] : a.write_done) last_done = std::max(last_done, t);
    for (const auto& [inc, t] : commits_) {
      if (inc == key.first && t >= last_done) {
        s.commit_ms = static_cast<double>(t - last_done) / 1e6;
        break;
      }
    }
    out.push_back(s);
  }
  return out;
}

// --- direct layer timings ----------------------------------------------------

namespace {

/// Operator context for single-threaded calls outside the engine: emits go
/// nowhere, timers never fire.
class NullContext final : public ms::core::OperatorContext {
 public:
  ms::SimTime now() const override { return ms::SimTime::zero(); }
  ms::Rng& rng() override { return rng_; }
  void emit(int, ms::core::Tuple&&) override {}
  void emit(int, const ms::core::Tuple&) override {}
  int num_out_ports() const override { return 1; }
  int num_in_ports() const override { return 1; }
  void schedule(ms::SimTime,
                std::function<void(ms::core::OperatorContext&)>) override {}
  void charge(ms::SimTime) override {}
  int hau_id() const override { return 0; }

 private:
  ms::Rng rng_{1};
};

/// Keeps a computed value observable so the loop producing it is not
/// optimized away.
volatile std::uint32_t g_crc_sink = 0;

}  // namespace

CoreTimings time_core(const KeyStream& keys, std::int64_t tuples,
                      const KeyedAgg& final_state,
                      std::vector<std::uint8_t>* state) {
  CoreTimings out;
  {
    // A bounded batch of prepared tuples, cycled, so only process() is timed.
    constexpr std::int64_t kBatch = 1 << 18;
    std::vector<ms::core::Tuple> batch(static_cast<std::size_t>(kBatch));
    for (std::int64_t i = 0; i < kBatch; ++i) {
      batch[static_cast<std::size_t>(i)].payload =
          std::make_shared<GenPayload>(i, 0, keys.key(i));
    }
    KeyedAgg agg("keyed");
    agg.prefill(keys.num_keys());
    NullContext ctx;
    std::int64_t done = 0;
    const std::int64_t t0 = now_ns();
    while (done < tuples) {
      for (const auto& t : batch) agg.process(0, t, ctx);
      agg.mark_checkpointed();  // a cut bounds the dirty list, as in the run
      done += kBatch;
    }
    out.process_ns =
        static_cast<double>(now_ns() - t0) / static_cast<double>(done);
  }
  std::vector<double> ser, deser;
  for (int rep = 0; rep < 3; ++rep) {
    ms::BinaryWriter w;
    const std::int64_t t0 = now_ns();
    final_state.serialize_state(w);
    ser.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    *state = w.take();
  }
  for (int rep = 0; rep < 3; ++rep) {
    KeyedAgg fresh("keyed");
    ms::BinaryReader r(*state);
    const std::int64_t t0 = now_ns();
    fresh.deserialize_state(r);
    deser.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  out.serialize_ms = median(ser);
  out.deserialize_ms = median(deser);
  out.state_bytes = static_cast<std::int64_t>(state->size());
  return out;
}

StorageTimings time_storage(const std::string& dir, std::size_t record_bytes,
                            const std::vector<std::uint8_t>& checkpoint) {
  namespace fs = std::filesystem;
  using ms::storage::ArtifactKind;
  const ms::storage::DurableOptions opts{ms::storage::SyncMode::kCommit,
                                         nullptr};
  StorageTimings out;
  {
    const std::string path = dir + "/append.bench";
    ms::storage::AppendFile f;
    if (f.open(path)) {
      const std::vector<std::uint8_t> rec(
          std::max<std::size_t>(1, record_bytes), 0xab);
      constexpr int kAppends = 20000;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kAppends; ++i) f.append(rec.data(), rec.size(), opts);
      out.append_us = static_cast<double>(now_ns() - t0) / 1e3 / kAppends;
      f.close();
    }
    std::error_code ec;
    fs::remove(path, ec);
  }
  const std::string path = dir + "/checkpoint.bench";
  std::vector<double> writes, reads;
  for (int rep = 0; rep < 3; ++rep) {
    std::int64_t t0 = now_ns();
    (void)ms::storage::write_artifact(path, ArtifactKind::kCheckpoint,
                                      checkpoint.data(), checkpoint.size(),
                                      opts);
    writes.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    std::vector<std::uint8_t> back;
    t0 = now_ns();
    (void)ms::storage::read_artifact(path, ArtifactKind::kCheckpoint, opts,
                                     &back);
    reads.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  std::error_code ec;
  fs::remove(path, ec);
  out.write_artifact_ms = median(writes);
  out.read_artifact_ms = median(reads);
  if (!checkpoint.empty()) {
    std::uint32_t crc = 0;
    std::int64_t bytes = 0;
    const std::int64_t t0 = now_ns();
    while (now_ns() - t0 < 50'000'000) {
      crc = ms::storage::crc32c(checkpoint.data(), checkpoint.size(), crc);
      bytes += static_cast<std::int64_t>(checkpoint.size());
    }
    g_crc_sink = crc;
    out.crc32c_gbps = static_cast<double>(bytes) /
                      (static_cast<double>(now_ns() - t0) / 1e9) / 1e9;
  }
  return out;
}

}  // namespace e2e
