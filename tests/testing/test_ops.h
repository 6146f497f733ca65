// Small operators and cluster fixtures shared by core, ft, and integration
// tests: a deterministic counting source, a pass-through relay with
// configurable state, a keyed delta-capable sum, and a recording sink with
// payload capture.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/application.h"
#include "core/cluster.h"
#include "core/operator.h"
#include "core/query_graph.h"

namespace ms::testing {

/// Payload carrying one integer value.
class IntPayload final : public core::Payload {
 public:
  explicit IntPayload(std::int64_t value, Bytes declared = 128)
      : value(value), declared_(declared) {}
  std::int64_t value;
  Bytes byte_size() const override { return declared_; }
  const char* type_name() const override { return "int"; }

 private:
  Bytes declared_;
};

/// Source emitting consecutive integers 0,1,2,... at a fixed rate,
/// round-robin over its out-ports. The counter models the *external world*
/// (a sensor feed): it moves only forward, is NOT rolled back by a
/// checkpoint restore, and values produced while the source HAU is down are
/// lost (the paper's source preservation protects everything dispatched
/// downstream, not sensor data that arrives during an outage).
class CounterSource final : public core::Operator {
 public:
  CounterSource(std::string name, SimTime period, Bytes tuple_bytes = 128)
      : core::Operator(std::move(name)), period_(period), bytes_(tuple_bytes) {
    costs().base = SimTime::micros(10);
  }

  void on_open(core::OperatorContext& ctx) override { arm(ctx); }

  void process(int, const core::Tuple&, core::OperatorContext&) override {}

  Bytes state_size() const override { return 16; }
  void serialize_state(BinaryWriter& w) const override { w.write(next_); }
  void deserialize_state(BinaryReader& r) override {
    // Consume but discard: the external feed does not rewind.
    (void)r.read<std::int64_t>();
  }
  void clear_state() override {}  // the external world does not reset

  std::int64_t emitted() const { return next_; }

 private:
  void arm(core::OperatorContext& ctx) {
    ctx.schedule(period_, [this](core::OperatorContext& c) {
      core::Tuple t;
      t.wire_size = bytes_;
      t.payload = std::make_shared<IntPayload>(next_, bytes_);
      ++next_;
      c.emit(static_cast<int>(next_ % c.num_out_ports()), std::move(t));
      arm(c);
    });
  }

  SimTime period_;
  Bytes bytes_;
  std::int64_t next_ = 0;
};

/// Relay: adds `delta` to the payload value and keeps a running sum as
/// checkpointable state (`extra_state_bytes` pads the declared size).
class RelayOperator final : public core::Operator {
 public:
  RelayOperator(std::string name, std::int64_t delta = 0,
                Bytes extra_state_bytes = 0)
      : core::Operator(std::move(name)),
        delta_(delta),
        extra_(extra_state_bytes) {
    costs().base = SimTime::micros(20);
  }

  void process(int, const core::Tuple& t, core::OperatorContext& ctx) override {
    const auto* p = t.payload_as<IntPayload>();
    MS_CHECK(p != nullptr);
    sum_ += p->value;
    ++seen_;
    core::Tuple out;
    out.wire_size = t.wire_size;
    out.payload = std::make_shared<IntPayload>(p->value + delta_, out.wire_size);
    for (int port = 0; port < ctx.num_out_ports(); ++port) {
      ctx.emit(port, out);
    }
  }

  Bytes state_size() const override { return 32 + extra_; }
  void serialize_state(BinaryWriter& w) const override {
    w.write(sum_);
    w.write(seen_);
  }
  void deserialize_state(BinaryReader& r) override {
    sum_ = r.read<std::int64_t>();
    seen_ = r.read<std::int64_t>();
  }
  void clear_state() override {
    sum_ = 0;
    seen_ = 0;
  }

  std::int64_t sum() const { return sum_; }
  std::int64_t seen() const { return seen_; }
  void set_extra_state_bytes(Bytes b) { extra_ = b; }

 private:
  std::int64_t delta_;
  Bytes extra_;
  std::int64_t sum_ = 0;
  std::int64_t seen_ = 0;
};

/// Keyed running sums (key = value % `keys`) with per-epoch dirty tracking —
/// the delta-aware operator; forwards every tuple. The dirty-key set is
/// cleared by mark_checkpointed() at the serialization cut, so a delta blob
/// carries exactly the keys mutated since the previous committed cut.
/// serialize_state() walks the (ordered) map, making full-state bytes
/// deterministic for byte-identity and exactness checks.
class KeyedDeltaSum final : public core::Operator {
 public:
  KeyedDeltaSum(std::string name, std::int64_t keys)
      : core::Operator(std::move(name)), keys_(keys) {}

  void process(int, const core::Tuple& t, core::OperatorContext& ctx) override {
    const auto* p = t.payload_as<IntPayload>();
    MS_CHECK(p != nullptr);
    const std::int64_t key = p->value % keys_;
    table_[key] += p->value;
    dirty_.insert(key);
    ctx.emit(0, t);
  }

  Bytes state_size() const override {
    return 8 + static_cast<Bytes>(table_.size()) * 16;
  }
  Bytes state_delta_size() const override {
    return 8 + static_cast<Bytes>(dirty_.size()) * 16;
  }

  void serialize_state(BinaryWriter& w) const override {
    w.write<std::uint64_t>(table_.size());
    for (const auto& [k, v] : table_) {
      w.write(k);
      w.write(v);
    }
  }
  void deserialize_state(BinaryReader& r) override {
    clear_state();
    const auto n = r.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = r.read<std::int64_t>();
      table_[k] = r.read<std::int64_t>();
    }
  }
  void clear_state() override {
    table_.clear();
    dirty_.clear();
  }

  bool supports_delta() const override { return true; }
  void serialize_delta(BinaryWriter& w) const override {
    w.write<std::uint64_t>(dirty_.size());
    for (const std::int64_t k : dirty_) {
      w.write(k);
      w.write(table_.at(k));
    }
  }
  void apply_delta(BinaryReader& r) override {
    const auto n = r.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = r.read<std::int64_t>();
      table_[k] = r.read<std::int64_t>();
    }
  }
  void mark_checkpointed() override { dirty_.clear(); }

  const std::map<std::int64_t, std::int64_t>& table() const { return table_; }

 private:
  std::int64_t keys_;
  std::map<std::int64_t, std::int64_t> table_;
  std::set<std::int64_t> dirty_;
};

/// Sink recording every received value (by in-port).
class RecordingSink final : public core::Operator {
 public:
  explicit RecordingSink(std::string name) : core::Operator(std::move(name)) {
    costs().base = SimTime::micros(5);
  }

  void process(int in_port, const core::Tuple& t,
               core::OperatorContext&) override {
    const auto* p = t.payload_as<IntPayload>();
    MS_CHECK(p != nullptr);
    values.push_back(p->value);
    by_port[in_port].push_back(p->value);
  }

  // The recorded values are test instrumentation, not simulated operator
  // state: declare a constant size so sinks never register as "dynamic"
  // HAUs in application-aware tests.
  Bytes state_size() const override { return 64; }
  void serialize_state(BinaryWriter& w) const override {
    w.write_vector(values);
  }
  void deserialize_state(BinaryReader& r) override {
    values = r.read_vector<std::int64_t>();
  }
  void clear_state() override {
    values.clear();
    by_port.clear();
  }

  std::vector<std::int64_t> values;
  std::map<int, std::vector<std::int64_t>> by_port;
};

/// A linear chain: source -> relay0 -> ... -> relay(n-1) -> sink.
inline core::QueryGraph chain_graph(int relays, SimTime source_period,
                                    Bytes tuple_bytes = 128) {
  core::QueryGraph g;
  const int src = g.add_source("src", [source_period, tuple_bytes] {
    return std::make_unique<CounterSource>("src", source_period, tuple_bytes);
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

/// Default small cluster: `nodes` compute nodes + 1 storage node.
inline core::ClusterParams small_cluster(int compute_nodes) {
  core::ClusterParams params;
  params.network.num_nodes = compute_nodes + 1;
  params.network.nodes_per_rack = 80;
  return params;
}

}  // namespace ms::testing
