#include "ops.h"

#include <algorithm>
#include <cmath>

namespace e2e {

using ms::BinaryReader;
using ms::BinaryWriter;
using ms::core::OperatorContext;
using ms::core::Tuple;

KeyStream::KeyStream(std::uint64_t seed, std::uint32_t num_keys, double zipf_s)
    : num_keys_(num_keys), salt_(mix64(seed ^ 0x6b657973ULL)) {
  table_.resize(std::size_t{1} << kTableBits);
  std::uint64_t state = mix64(seed);
  const auto uniform01 = [&state] {
    state = mix64(state);
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  const std::uint32_t last = num_keys - 1;
  if (zipf_s <= 0.0) {
    for (auto& k : table_) {
      k = std::min(last, static_cast<std::uint32_t>(uniform01() * num_keys));
    }
    return;
  }
  std::vector<double> cdf(num_keys);
  double acc = 0.0;
  for (std::uint32_t i = 0; i < num_keys; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i) + 1.0, zipf_s);
    cdf[i] = acc;
  }
  for (auto& k : table_) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), uniform01() * acc);
    k = std::min(last, static_cast<std::uint32_t>(it - cdf.begin()));
  }
}

ms::ft::TupleCodec gen_codec() {
  ms::ft::TupleCodec codec;
  codec.encode_payload = [](const ms::core::Payload& p, BinaryWriter& w) {
    const auto& g = static_cast<const GenPayload&>(p);
    w.write(g.seq);
    w.write(g.due_ns);
    w.write(g.key);
  };
  codec.decode_payload =
      [](BinaryReader& r) -> std::shared_ptr<const ms::core::Payload> {
    const auto seq = r.read<std::int64_t>();
    const auto due = r.read<std::int64_t>();
    const auto key = r.read<std::uint32_t>();
    return std::make_shared<GenPayload>(seq, due, key);
  };
  return codec;
}

// --- generator ---------------------------------------------------------------

void GenSource::arm(OperatorContext& ctx, std::int64_t delay_ns) {
  ctx.schedule(ms::SimTime::nanos(delay_ns),
               [this](OperatorContext& c) { tick(c); });
}

void GenSource::tick(OperatorContext& ctx) {
  Feed& f = *feed_;
  const std::int64_t limit = f.limit.load(std::memory_order_acquire);
  std::int64_t cur = f.cursor.load(std::memory_order_relaxed);
  const std::int64_t t = now_ns();
  const bool paced = f.paced.load(std::memory_order_acquire);
  std::int64_t end = 0;
  if (paced) {
    const std::int64_t owed = f.due_count(t);
    if (f.record_lag.load(std::memory_order_relaxed)) {
      f.lag_ms.push_back(
          owed > cur ? static_cast<float>(t - f.due_ns(cur)) / 1e6f : 0.0f);
    }
    end = std::min(owed, limit);
  } else {
    end = std::min(cur + Feed::kBurst, limit);
  }
  if (cur >= end) f.idle_ticks.fetch_add(1, std::memory_order_release);
  for (; cur < end; ++cur) {
    const std::int64_t due = paced ? f.due_ns(cur) : t;
    Tuple tup;
    tup.wire_size = 64;
    // Stamped here so the engine does not read its clock per tuple.
    tup.event_time = ms::SimTime::nanos(due);
    tup.payload = std::make_shared<GenPayload>(cur, due, f.keys->key(cur));
    ctx.emit(0, std::move(tup));
    f.cursor.store(cur + 1, std::memory_order_release);
  }
  // A closed loop re-arms at once (backpressure is its only brake); a paced
  // or fenced generator polls its schedule every tick.
  arm(ctx, paced || cur >= limit ? Feed::kTickNs : 0);
}

// --- keyed aggregation -------------------------------------------------------

void KeyedAgg::process(int, const Tuple& t, OperatorContext& ctx) {
  const auto* p = static_cast<const GenPayload*>(t.payload.get());
  Entry& e = table_[p->key];
  e.agg.sum += p->seq;
  ++e.agg.count;
  if (!e.dirty) {
    e.dirty = true;
    dirty_.push_back(p->key);
  }
  ctx.emit(0, t);
}

void KeyedAgg::serialize_state(BinaryWriter& w) const {
  w.reserve(w.size() + 8 + table_.size() * kEntryBytes);
  w.write<std::uint64_t>(table_.size());
  for (const auto& [key, e] : table_) {
    w.write(key);
    w.write(e.agg.sum);
    w.write(e.agg.count);
  }
}

void KeyedAgg::read_entries(BinaryReader& r) {
  const auto n = r.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto key = r.read<std::uint32_t>();
    Entry& e = table_[key];
    e.agg.sum = r.read<std::int64_t>();
    e.agg.count = r.read<std::int64_t>();
  }
}

void KeyedAgg::deserialize_state(BinaryReader& r) {
  clear_state();
  read_entries(r);
}

void KeyedAgg::serialize_delta(BinaryWriter& w) const {
  w.reserve(w.size() + 8 + dirty_.size() * kEntryBytes);
  w.write<std::uint64_t>(dirty_.size());
  for (const std::uint32_t key : dirty_) {
    const KeyAgg& a = table_.at(key).agg;
    w.write(key);
    w.write(a.sum);
    w.write(a.count);
  }
}

void KeyedAgg::apply_delta(BinaryReader& r) { read_entries(r); }

void KeyedAgg::mark_checkpointed() {
  for (const std::uint32_t key : dirty_) table_[key].dirty = false;
  dirty_.clear();
}

void KeyedAgg::prefill(std::uint32_t num_keys) {
  table_.reserve(num_keys);
  for (std::uint32_t k = 0; k < num_keys; ++k) table_[k].agg = prefill_value(k);
}

// --- checking sink -----------------------------------------------------------

void CheckSink::process(int, const Tuple& t, OperatorContext&) {
  const auto* p = static_cast<const GenPayload*>(t.payload.get());
  const std::int64_t seq = p->seq;
  if (seq == next_) {
    ++next_;
  } else if (seq < next_) {
    ++dups_;
  } else {
    gaps_ += seq - next_;
    next_ = seq + 1;
  }
  SinkProbe& pr = *probe_;
  // A tuple processed again after a crash was sampled the first time.
  if (seq >= pr.high_water) {
    pr.high_water = seq + 1;
    const std::int64_t mask = (std::int64_t{1} << pr.sample_shift) - 1;
    if ((seq & mask) == 0 &&
        p->due_ns >= pr.sample_from_ns.load(std::memory_order_relaxed)) {
      pr.latency.push_back(LatencySample{
          p->due_ns, static_cast<float>(now_ns() - p->due_ns) / 1e6f});
    }
  }
  // Published last: whoever sees `next` catch up sees every sample.
  pr.next.store(next_, std::memory_order_release);
}

ms::core::QueryGraph make_graph(std::shared_ptr<Feed> feed,
                                std::shared_ptr<SinkProbe> probe) {
  ms::core::QueryGraph g;
  const int src = g.add_source(
      "src", [feed] { return std::make_unique<GenSource>("src", feed); });
  const int keyed = g.add_operator(
      "keyed", [] { return std::make_unique<KeyedAgg>("keyed"); });
  const int sink = g.add_sink(
      "sink", [probe] { return std::make_unique<CheckSink>("sink", probe); });
  g.connect(src, keyed);
  g.connect(keyed, sink);
  return g;
}

}  // namespace e2e
