#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "common/metrics_registry.h"
#include "ft/rt_runtime.h"
#include "layers.h"
#include "ops.h"
#include "rt/engine.h"
#include "stats.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using ms::SimTime;
using ms::ft::RtMode;
using ms::storage::ArtifactKind;

constexpr std::int64_t kForever = std::numeric_limits<std::int64_t>::max();
/// Set-ups per pass; setup_s is their median.
constexpr int kSetups = 3;
/// Latency quantiles are taken per window, and the run reports the window at
/// rank kWindowRank among them, so a stall that hits one window moves one
/// entry, not the run's figure. A steady window spans this many checkpoint
/// periods, so every window pays for the checkpoint initiated inside it;
/// recover's windows are its crash cycles.
constexpr std::int64_t kPeriodsPerWindow = 1;
/// The lower quartile over the windows: windows that other tenants of a
/// shared host slowed down fall above it, so it tracks the program.
constexpr double kWindowRank = 0.25;
/// Fewest samples a window needs: its p99 then has ten samples beyond it.
constexpr std::size_t kMinWindowSamples = 1000;

/// One workload. DESIGN.md records why each exists, which layers it
/// stresses and which it bypasses.
struct Spec {
  const char* name;
  std::uint32_t num_keys;   // standing keyed state; every key is prefilled
  double zipf_s;            // key skew; 0 = uniform
  bool paced;               // open loop at `rate`, else closed loop
  double rate;              // tuples/s when paced
  RtMode mode;
  SimTime period;           // periodic checkpoint interval
  bool steady;              // steady window + crash drills, else crash cycles
  int drills;               // crash cycles after the steady window
  int deltas;               // delta epochs per crash cycle
  std::int64_t batch;       // tuples before each delta epoch
  std::int64_t suffix;      // preserved log suffix each recovery replays
  std::int64_t warmup;      // tuples delivered during set-up
  int sample_shift;         // latency sampled for 1 tuple in 2^shift
  /// checkpoint_ms from the drills' epochs instead of the window's (the
  /// window's periodic epochs starve under a saturating source).
  bool ckpt_from_drills;
  bool abandon_is_failure;  // an abandoned epoch counts as a failed op
};

const Spec kSpecs[] = {
    {"saturate", 1u << 16, 0.0, false, 0.0, RtMode::kSrcAp,
     SimTime::millis(500), true, 15, 0, 0, 100'000, 200'000, 3, true, false},
    {"paced", 1u << 20, 1.0, true, 100'000.0, RtMode::kSrcAp,
     SimTime::millis(500), true, 7, 0, 0, 100'000, 200'000, 0, false, true},
    {"recover", 1u << 20, 1.0, false, 0.0, RtMode::kSrcApDelta,
     SimTime::millis(500), false, 0, 3, 100'000, 100'000, 200'000, 0, false,
     true},
};

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Quantile `q` of the latencies in each window [cuts[i], cuts[i + 1]) of
/// due time, taken at kWindowRank over the windows with at least
/// kMinWindowSamples. `samples` are in due-time order.
double windowed_quantile(const std::vector<LatencySample>& samples,
                         const std::vector<std::int64_t>& cuts, double q) {
  std::vector<double> per_window;
  std::vector<float> window;
  std::size_t i = 0;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    window.clear();
    for (; i < samples.size() && samples[i].due_ns < cuts[k + 1]; ++i) {
      if (samples[i].due_ns >= cuts[k]) window.push_back(samples[i].ms);
    }
    if (window.size() >= kMinWindowSamples) {
      per_window.push_back(quantile(window, q));
    }
  }
  return quantile(per_window, kWindowRank);
}

/// Counters of one incarnation that a measured phase accumulates.
struct Counts {
  std::array<std::int64_t, 3> processed{};
  std::int64_t started = 0;
  std::int64_t completed = 0;
  std::int64_t abandoned = 0;

  void add_delta(const Counts& now, const Counts& base) {
    for (std::size_t i = 0; i < processed.size(); ++i) {
      processed[i] += now.processed[i] - base.processed[i];
    }
    started += now.started - base.started;
    completed += now.completed - base.completed;
    abandoned += now.abandoned - base.abandoned;
  }
};

/// One engine lifetime, with its runtime unless engine-only. Members are
/// destroyed in reverse order: runtime, engine, then the registry the
/// runtime records into.
struct Incarnation {
  ms::MetricsRegistry metrics;
  std::unique_ptr<ms::rt::RtEngine> engine;
  std::unique_ptr<ms::ft::RtRuntime> rt;
  /// Epochs initiated in [count_from, count_until) on the runtime's clock
  /// feed checkpoint_ms.
  SimTime count_from = SimTime::max();
  SimTime count_until = SimTime::max();

  KeyedAgg& keyed() { return static_cast<KeyedAgg&>(engine->op(kKeyed)); }
  CheckSink& sink() { return static_cast<CheckSink&>(engine->op(kSink)); }
  std::int64_t counter(const char* name) {
    return metrics.counter(name)->value();
  }
  bool start() {
    if (!rt) {
      engine->start();
      return true;
    }
    return rt->start().is_ok();
  }
  void stop() {
    if (rt) {
      rt->stop();
    } else {
      engine->stop();
    }
  }
  Counts counts() {
    Counts c;
    for (int i = 0; i < 3; ++i) {
      c.processed[static_cast<std::size_t>(i)] = engine->tuples_processed(i);
    }
    if (rt) {
      c.started = counter("ft.ckpt.started");
      c.completed = counter("ft.ckpt.completed");
      c.abandoned = counter("ft.ckpt.abandoned");
    }
    return c;
  }
};

/// Traced-run instrumentation, shared by every incarnation of a traced pass.
struct Tracer {
  ms::MetricsRegistry engine_metrics;  // RtConfig::metrics
  CountingInjector disk;               // RtRuntimeConfig::disk_faults
  ProbeLog probes;                     // RtRuntime::add_probe
};

constexpr std::array<ArtifactKind, 4> kCountedKinds = {
    ArtifactKind::kSourceLog, ArtifactKind::kCheckpoint, ArtifactKind::kDelta,
    ArtifactKind::kManifest};
constexpr std::array<const char*, 4> kKindNames = {"source_log", "checkpoint",
                                                   "delta", "manifest"};

/// What one pass of a workload measured. Per-layer fields are filled only
/// when the pass is traced.
struct Measured {
  double setup_s = 0;
  // The measured phase: the steady window, or every crash cycle.
  double phase_s = 0;
  std::int64_t delivered = 0;
  Counts counts;
  std::vector<LatencySample> latency;
  /// Latency windows: window i holds the samples due in
  /// [latency_cuts[i], latency_cuts[i + 1]).
  std::vector<std::int64_t> latency_cuts;
  std::vector<double> ckpt_ms;
  std::vector<double> ckpt_bytes;
  double gen_lag_p99 = 0;
  std::int64_t backlog_end = 0;
  std::array<double, 3> enqueue_wait_ms{};
  std::vector<EpochSpans> spans;
  std::array<std::int64_t, 4> writes{};
  std::array<std::int64_t, 4> reads{};
  // One entry per timed crash->recover cycle.
  std::vector<double> recovery_ms, construct_ms, disk_ms, other_ms, replay_ms,
      drain_ms, bytes_read, replayed, chain_len;
  std::int64_t fallbacks = 0;
  // Direct timing of the final keyed state.
  CoreTimings core;
  std::vector<std::uint8_t> state;

  double throughput() const {
    return phase_s > 0 ? static_cast<double>(delivered) / phase_s : 0;
  }
};

/// Closed-loop cost of one adjacent configuration (traced runs).
struct LoopStats {
  double ns_per_tuple = 0;
  double appends_per_tuple = 0;
  double bytes_per_tuple = 0;
};

class Bench {
 public:
  Bench(const Spec& spec, const Options& opt)
      : spec_(spec),
        opt_(opt),
        keys_(opt.seed, spec.num_keys, spec.zipf_s),
        feed_(std::make_shared<Feed>(&keys_)),
        probe_(std::make_shared<SinkProbe>()),
        expected_(spec.num_keys) {
    probe_->sample_shift = spec.sample_shift;
    probe_->latency.reserve(std::size_t{1} << 21);
    epochs_acct_.counted = spec.abandon_is_failure;
  }

  Report run();

 private:
  std::string data_dir() const { return opt_.dir + "/data"; }
  bool fail(const std::string& what) {
    errors_.push_back(std::string(spec_.name) + ": " + what);
    ok_ = false;
    return false;
  }

  // --- world and lifecycle ---
  void close_world();
  void reset_world();
  std::unique_ptr<Incarnation> build(bool ft, bool periodic);
  void retire(std::unique_ptr<Incarnation>& inc);
  double set_up(std::unique_ptr<Incarnation>& inc, bool ft, bool periodic);
  void release(std::int64_t n) { feed_->limit.store(feed_->cursor.load() + n); }
  void fence() {
    feed_->paced.store(false);
    feed_->limit.store(0);
  }
  bool drain();
  bool checkpoint_now(Incarnation& inc);
  bool verify(Incarnation& inc);

  // --- phases ---
  Measured pass(double seconds);
  void begin_phase(Incarnation& inc);
  void end_phase(Incarnation& inc);
  void steady_window(Incarnation& inc, double seconds);
  bool crash_cycle(std::unique_ptr<Incarnation>& inc, int deltas);
  LoopStats closed_loop(bool ft, bool periodic, double seconds);
  std::array<std::int64_t, 4> disk_counts(bool writes) const;

  void add_end_to_end(Report& r, const Measured& m) const;
  void add_per_layer(Report& r, const Measured& t, const Measured& base,
                     const LoopStats& engine_only, const LoopStats& log_only,
                     double ckpt_ns, const StorageTimings& st) const;

  const Spec& spec_;
  Options opt_;
  KeyStream keys_;
  std::shared_ptr<Feed> feed_;
  std::shared_ptr<SinkProbe> probe_;
  /// Reference aggregates of sequence numbers [0, expected_upto_).
  std::vector<KeyAgg> expected_;
  std::int64_t expected_upto_ = 0;
  /// Tuples the last verification of this world covered, and the lost plus
  /// duplicated ones it found.
  std::int64_t world_verified_ = 0;
  std::int64_t world_tuple_failures_ = 0;

  Tracer* tracer_ = nullptr;  // set during traced passes
  Measured* cur_ = nullptr;   // the pass in progress
  bool measuring_ = false;
  /// Epochs of incarnations built while set count toward checkpoint_ms.
  bool count_epochs_ = false;
  Counts phase_base_;
  std::array<std::int64_t, 4> phase_writes0_{}, phase_reads0_{};
  /// Counted epochs of the pass in progress.
  std::vector<ms::ft::AppCheckpointStats> epochs_;

  OpCount tuples_acct_{"tuples"};
  OpCount keys_acct_{"state_keys"};
  OpCount epochs_acct_{"epochs"};
  OpCount recoveries_acct_{"recoveries"};
  bool ok_ = true;
  std::vector<std::string> errors_;
};

void Bench::close_world() {
  tuples_acct_.attempted += world_verified_;
  tuples_acct_.failed += world_tuple_failures_;
  world_verified_ = 0;
  world_tuple_failures_ = 0;
}

void Bench::reset_world() {
  close_world();
  std::error_code ec;
  fs::remove_all(data_dir(), ec);
  fs::create_directories(data_dir(), ec);
  feed_->cursor.store(0);
  feed_->limit.store(0);
  feed_->paced.store(false);
  feed_->record_lag.store(false);
  feed_->lag_ms.clear();
  probe_->next.store(0);
  probe_->high_water = 0;
  probe_->sample_from_ns.store(kForever);
  probe_->latency.clear();
  for (std::uint32_t k = 0; k < spec_.num_keys; ++k) {
    expected_[k] = KeyedAgg::prefill_value(k);
  }
  expected_upto_ = 0;
}

std::unique_ptr<Incarnation> Bench::build(bool ft, bool periodic) {
  auto inc = std::make_unique<Incarnation>();
  ms::rt::RtConfig ecfg;
  if (tracer_ != nullptr) ecfg.metrics = &tracer_->engine_metrics;
  inc->engine =
      std::make_unique<ms::rt::RtEngine>(make_graph(feed_, probe_), ecfg);
  if (!ft) return inc;
  ms::ft::RtRuntimeConfig cfg;
  cfg.mode = spec_.mode;
  cfg.dir = data_dir();
  cfg.params.periodic = periodic;
  cfg.params.checkpoint_period = spec_.period;
  cfg.codec = gen_codec();
  cfg.metrics = &inc->metrics;
  if (tracer_ != nullptr) cfg.disk_faults = &tracer_->disk;
  inc->rt = std::make_unique<ms::ft::RtRuntime>(inc->engine.get(), cfg);
  if (tracer_ != nullptr) tracer_->probes.attach(inc->rt.get());
  if (count_epochs_) inc->count_from = SimTime::zero();
  return inc;
}

void Bench::retire(std::unique_ptr<Incarnation>& inc) {
  if (!inc) return;
  inc->stop();
  if (tracer_ != nullptr) tracer_->probes.detach();
  if (measuring_) cur_->counts.add_delta(inc->counts(), phase_base_);
  phase_base_ = Counts{};
  if (inc->rt) {
    // Engine stopped: the coordinator's records are final.
    for (const auto& s : inc->rt->coordinator().checkpoints()) {
      if (s.initiated >= inc->count_from && s.initiated < inc->count_until) {
        epochs_.push_back(s);
      }
    }
    epochs_acct_.attempted += inc->counter("ft.ckpt.started");
    epochs_acct_.failed += inc->counter("ft.ckpt.abandoned");
  }
  inc.reset();
}

double Bench::set_up(std::unique_ptr<Incarnation>& inc, bool ft,
                     bool periodic) {
  retire(inc);
  reset_world();
  const std::int64_t t0 = now_ns();
  inc = build(ft, periodic);
  inc->keyed().prefill(spec_.num_keys);
  if (!inc->start()) fail("set-up: start failed");
  release(spec_.warmup);
  if (!drain()) fail("set-up: warm-up did not drain");
  if (ft && !checkpoint_now(*inc)) fail("set-up: first checkpoint failed");
  return static_cast<double>(now_ns() - t0) / 1e9;
}

bool Bench::drain() {
  // Drained = the generator has had a tick with nothing left to emit, and the
  // sink has seen everything emitted.
  const std::int64_t ticks0 = feed_->idle_ticks.load();
  const std::int64_t deadline = now_ns() + 60'000'000'000;
  for (;;) {
    if (feed_->idle_ticks.load() > ticks0 &&
        probe_->next.load() == feed_->cursor.load()) {
      return true;
    }
    if (now_ns() > deadline) {
      return fail("drain timed out: sink at " +
                  std::to_string(probe_->next.load()) + ", generator at " +
                  std::to_string(feed_->cursor.load()));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool Bench::checkpoint_now(Incarnation& inc) {
  // wait_checkpoints(n, 0) answers "have at least n committed?".
  std::uint64_t have = 0;
  while (inc.rt->wait_checkpoints(have + 1, SimTime::zero())) ++have;
  if (!inc.rt->begin_checkpoint().is_ok()) {
    return fail("begin_checkpoint refused");
  }
  if (!inc.rt->wait_checkpoints(have + 1, SimTime::seconds(30))) {
    return fail("checkpoint " + std::to_string(have + 1) + " did not commit");
  }
  return true;
}

bool Bench::verify(Incarnation& inc) {
  inc.stop();
  const std::int64_t n = feed_->cursor.load();
  for (; expected_upto_ < n; ++expected_upto_) {
    KeyAgg& e = expected_[keys_.key(expected_upto_)];
    e.sum += expected_upto_;
    ++e.count;
  }
  const auto& table = inc.keyed().table();
  std::int64_t bad = std::llabs(static_cast<std::int64_t>(table.size()) -
                                static_cast<std::int64_t>(spec_.num_keys));
  for (std::uint32_t k = 0; k < spec_.num_keys; ++k) {
    const auto it = table.find(k);
    if (it == table.end() || !(it->second.agg == expected_[k])) ++bad;
  }
  keys_acct_.attempted += spec_.num_keys;
  keys_acct_.failed += bad;
  const CheckSink& s = inc.sink();
  const std::int64_t tuple_bad =
      std::llabs(n - s.next()) + s.duplicates() + s.gaps();
  world_verified_ = n;
  world_tuple_failures_ = std::max(world_tuple_failures_, tuple_bad);
  bool good = true;
  if (bad != 0 || tuple_bad != 0) {
    good = fail("oracle: " + std::to_string(bad) + " keys differ; sink at " +
                std::to_string(s.next()) + " of " + std::to_string(n) +
                ", " + std::to_string(s.duplicates()) + " duplicates, " +
                std::to_string(s.gaps()) + " missing");
  }
  if (!inc.start()) good = fail("restart after verification failed");
  return good;
}

std::array<std::int64_t, 4> Bench::disk_counts(bool writes) const {
  std::array<std::int64_t, 4> out{};
  if (tracer_ == nullptr) return out;
  for (std::size_t i = 0; i < kCountedKinds.size(); ++i) {
    out[i] = writes ? tracer_->disk.writes(kCountedKinds[i])
                    : tracer_->disk.reads(kCountedKinds[i]);
  }
  return out;
}

void Bench::begin_phase(Incarnation& inc) {
  phase_base_ = inc.counts();
  measuring_ = true;
  phase_writes0_ = disk_counts(true);
  phase_reads0_ = disk_counts(false);
  if (tracer_ != nullptr) {
    tracer_->engine_metrics.reset();
    tracer_->probes.clear();
  }
}

void Bench::end_phase(Incarnation& inc) {
  Measured& m = *cur_;
  const Counts now = inc.counts();
  m.counts.add_delta(now, phase_base_);
  phase_base_ = now;
  measuring_ = false;
  if (tracer_ != nullptr) {
    for (int op = kKeyed; op <= kSink; ++op) {
      const ms::LatencyHistogram h =
          tracer_->engine_metrics
              .histogram("rt.op." + std::to_string(op) + ".enqueue_wait_ns")
              ->snapshot();
      m.enqueue_wait_ms[static_cast<std::size_t>(op)] =
          static_cast<double>(h.mean().ns()) * static_cast<double>(h.count()) /
          1e6;
    }
    m.spans = tracer_->probes.epochs();
  }
}

void Bench::steady_window(Incarnation& inc, double seconds) {
  Measured& m = *cur_;
  const std::int64_t c0 = feed_->cursor.load();
  const std::int64_t d0 = probe_->next.load();
  begin_phase(inc);
  const std::int64_t t0 = now_ns();
  if (!spec_.ckpt_from_drills) inc.count_from = inc.rt->now();
  probe_->sample_from_ns.store(t0);
  if (spec_.paced) {
    feed_->rate = spec_.rate;
    feed_->pace_t0_ns = t0;
    feed_->pace_seq0 = c0;
    feed_->record_lag.store(true);
    feed_->limit.store(kForever);
    feed_->paced.store(true, std::memory_order_release);
  } else {
    feed_->limit.store(kForever);
  }
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9)));
  const std::int64_t t1 = now_ns();
  const std::int64_t d1 = probe_->next.load();
  const std::int64_t owed =
      spec_.paced ? feed_->due_count(t1) : feed_->cursor.load();
  inc.count_until = inc.rt->now();
  end_phase(inc);
  fence();
  feed_->record_lag.store(false);
  probe_->sample_from_ns.store(kForever);
  m.phase_s = static_cast<double>(t1 - t0) / 1e9;
  m.delivered = d1 - d0;
  m.backlog_end = owed - d1;
  // Equal latency windows of about kPeriodsPerWindow checkpoint periods.
  const std::int64_t window_ns = spec_.period.ns() * kPeriodsPerWindow;
  const std::int64_t windows =
      std::max<std::int64_t>(1, (t1 - t0 + window_ns / 2) / window_ns);
  for (std::int64_t k = 0; k <= windows; ++k) {
    m.latency_cuts.push_back(t0 + (t1 - t0) * k / windows);
  }
  if (drain()) {
    // Nothing samples after the drain: the sink publishes `next` after its
    // latency sample, and the generator has had an idle tick.
    m.latency = probe_->latency;
    m.gen_lag_p99 = quantile(feed_->lag_ms, 0.99);
  }
}

bool Bench::crash_cycle(std::unique_ptr<Incarnation>& inc, int deltas) {
  // Precondition: generator fenced and drained, and the newest committed
  // epoch cut at that quiescent point.
  Measured& m = *cur_;
  for (int d = 0; d < deltas; ++d) {
    release(spec_.batch);
    if (!drain() || !checkpoint_now(*inc)) return false;
  }
  release(spec_.suffix);
  if (!drain()) return false;
  const std::int64_t crashed_at = feed_->cursor.load();
  inc->rt->simulate_crash();
  retire(inc);

  const std::int64_t delta_reads0 =
      tracer_ != nullptr ? tracer_->disk.reads(ArtifactKind::kDelta) : 0;
  const std::int64_t t0 = now_ns();
  inc = build(true, false);
  const std::int64_t t_built = now_ns();
  ms::ft::RecoveryStats rs;
  const ms::Status st = inc->rt->recover(&rs);
  const std::int64_t t_recovered = now_ns();
  ++recoveries_acct_.attempted;
  if (!st.is_ok()) {
    ++recoveries_acct_.failed;
    return fail("recover() failed: " + st.to_string());
  }
  if (!drain()) {
    ++recoveries_acct_.failed;
    return false;
  }
  const std::int64_t t1 = now_ns();
  m.recovery_ms.push_back(ms_between(t0, t1));
  m.construct_ms.push_back(ms_between(t0, t_built));
  m.disk_ms.push_back(rs.disk_io.to_millis());
  m.other_ms.push_back(rs.other.to_millis());
  m.replay_ms.push_back(rs.reconnection.to_millis());
  m.drain_ms.push_back(ms_between(t_recovered, t1));
  m.bytes_read.push_back(static_cast<double>(rs.bytes_read));
  m.replayed.push_back(
      static_cast<double>(crashed_at - feed_->restored.load()));
  if (tracer_ != nullptr) {
    m.chain_len.push_back(static_cast<double>(
        1 + tracer_->disk.reads(ArtifactKind::kDelta) - delta_reads0));
  }
  m.fallbacks += inc->counter("ft.recovery.fallbacks");
  if (!verify(*inc)) {
    ++recoveries_acct_.failed;
    return false;
  }
  return checkpoint_now(*inc);
}

Measured Bench::pass(double seconds) {
  Measured m;
  cur_ = &m;
  epochs_.clear();
  std::unique_ptr<Incarnation> inc;
  std::vector<double> setups;
  for (int i = 0; i < kSetups && ok_; ++i) {
    setups.push_back(set_up(inc, true, spec_.steady));
  }
  m.setup_s = median(setups);
  if (ok_ && spec_.steady) {
    steady_window(*inc, seconds);
    // Tear the window's runtime down without another commit: a commit would
    // truncate, and so read back, everything the window logged.
    inc->rt->simulate_crash();
    verify(*inc);
    // The drills start from a fresh set-up without the periodic schedule,
    // so each replays exactly spec_.suffix tuples past a quiescent cut.
    if (ok_) set_up(inc, true, false);
    count_epochs_ = spec_.ckpt_from_drills;
    if (ok_ && count_epochs_) inc->count_from = inc->rt->now();
    for (int d = 0; d < spec_.drills && ok_; ++d) crash_cycle(inc, 0);
  } else if (ok_) {
    const std::int64_t c0 = feed_->cursor.load();
    begin_phase(*inc);
    const std::int64_t t0 = now_ns();
    count_epochs_ = true;
    inc->count_from = inc->rt->now();
    probe_->sample_from_ns.store(t0);
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    for (int cycles = 0; ok_ && (cycles < 2 || now_ns() - t0 < budget);
         ++cycles) {
      m.latency_cuts.push_back(now_ns());  // one latency window per cycle
      crash_cycle(inc, spec_.deltas);
    }
    m.latency_cuts.push_back(now_ns());
    m.phase_s = static_cast<double>(now_ns() - t0) / 1e9;
    m.delivered = feed_->cursor.load() - c0;
    probe_->sample_from_ns.store(kForever);
    if (inc) {
      end_phase(*inc);
      inc->stop();  // the sink's samples are final once it stopped
      m.latency = probe_->latency;
    }
  }
  count_epochs_ = false;
  if (tracer_ != nullptr && inc && ok_) {
    inc->stop();
    m.core = time_core(keys_, std::int64_t{1} << 20, inc->keyed(), &m.state);
  }
  retire(inc);

  const auto writes = disk_counts(true);
  const auto reads = disk_counts(false);
  for (std::size_t i = 0; i < writes.size(); ++i) {
    m.writes[i] = writes[i] - phase_writes0_[i];
    m.reads[i] = reads[i] - phase_reads0_[i];
  }
  for (const auto& s : epochs_) {
    m.ckpt_ms.push_back(s.total().to_millis());
    m.ckpt_bytes.push_back(static_cast<double>(s.total_declared));
  }
  cur_ = nullptr;
  return m;
}

LoopStats Bench::closed_loop(bool ft, bool periodic, double seconds) {
  LoopStats out;
  Measured scratch;
  cur_ = &scratch;
  std::unique_ptr<Incarnation> inc;
  set_up(inc, ft, periodic);
  const std::string log = data_dir() + "/source_0.log";
  std::error_code ec;
  const auto size0 = ft ? fs::file_size(log, ec) : 0;
  const std::int64_t appends0 = tracer_->disk.writes(ArtifactKind::kSourceLog);
  const std::int64_t c0 = feed_->cursor.load();
  const std::int64_t d0 = probe_->next.load();
  const std::int64_t t0 = now_ns();
  feed_->limit.store(kForever);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9)));
  const std::int64_t t1 = now_ns();
  const std::int64_t d1 = probe_->next.load();
  fence();
  if (ok_ && drain() && d1 > d0) {
    const auto emitted = static_cast<double>(feed_->cursor.load() - c0);
    out.ns_per_tuple =
        static_cast<double>(t1 - t0) / static_cast<double>(d1 - d0);
    if (ft) {
      out.appends_per_tuple =
          static_cast<double>(tracer_->disk.writes(ArtifactKind::kSourceLog) -
                              appends0) /
          emitted;
      out.bytes_per_tuple =
          static_cast<double>(fs::file_size(log, ec) - size0) / emitted;
    }
    // Same teardown as the steady window: no commit over a long log.
    if (inc->rt) inc->rt->simulate_crash();
    verify(*inc);
  }
  retire(inc);
  cur_ = nullptr;
  return out;
}

void Bench::add_end_to_end(Report& r, const Measured& m) const {
  r.metrics.push_back({"throughput_tps", m.throughput(), "tuples/s"});
  r.metrics.push_back(
      {"latency_ms_p50", windowed_quantile(m.latency, m.latency_cuts, 0.5),
       "ms"});
  r.metrics.push_back(
      {"latency_ms_p99", windowed_quantile(m.latency, m.latency_cuts, 0.99),
       "ms"});
  r.metrics.push_back({"checkpoint_ms_p50", quantile(m.ckpt_ms, 0.5), "ms"});
  r.metrics.push_back({"checkpoint_ms_p90", quantile(m.ckpt_ms, 0.9), "ms"});
  r.metrics.push_back({"recovery_ms_p50", median(m.recovery_ms), "ms"});
  r.metrics.push_back({"setup_s", m.setup_s, "s"});
}

/// Median of the non-negative entries (negative = phase not observed).
double span_p50(const std::vector<EpochSpans>& spans,
                double EpochSpans::*field) {
  std::vector<double> v;
  for (const auto& s : spans) {
    if (s.*field >= 0) v.push_back(s.*field);
  }
  return median(v);
}

void Bench::add_per_layer(Report& r, const Measured& t, const Measured& base,
                          const LoopStats& engine_only,
                          const LoopStats& log_only, double ckpt_ns,
                          const StorageTimings& st) const {
  auto add = [&r](const std::string& name, double v, const std::string& unit) {
    r.metrics.push_back({name, v, unit});
  };
  // gen
  add("gen.lag_ms_p99", t.gen_lag_p99, "ms");
  add("gen.backlog_end", static_cast<double>(t.backlog_end), "count");
  // core: single-threaded calls at the run's own state
  add("core.keyed.process_ns", t.core.process_ns, "ns");
  add("core.keyed.serialize_ms", t.core.serialize_ms, "ms");
  add("core.keyed.deserialize_ms", t.core.deserialize_ms, "ms");
  add("core.state_bytes", static_cast<double>(t.core.state_bytes), "bytes");
  // rt
  add("rt.ns_per_tuple", engine_only.ns_per_tuple, "ns");
  add("rt.enqueue_wait_ms.keyed", t.enqueue_wait_ms[kKeyed], "ms");
  add("rt.enqueue_wait_ms.sink", t.enqueue_wait_ms[kSink], "ms");
  add("rt.processed.src", static_cast<double>(t.counts.processed[kSrc]),
      "count");
  add("rt.processed.keyed", static_cast<double>(t.counts.processed[kKeyed]),
      "count");
  add("rt.processed.sink", static_cast<double>(t.counts.processed[kSink]),
      "count");
  // ft.log: RtRuntime with periodic checkpoints off, minus engine only
  add("ft.log.ns_per_tuple", log_only.ns_per_tuple - engine_only.ns_per_tuple,
      "ns");
  add("ft.log.appends_per_tuple", log_only.appends_per_tuple, "count");
  add("ft.log.bytes_per_tuple", log_only.bytes_per_tuple, "bytes");
  // ft.ckpt
  add("ft.ckpt.initiated", static_cast<double>(t.counts.started), "count");
  add("ft.ckpt.committed", static_cast<double>(t.counts.completed), "count");
  add("ft.ckpt.abandoned", static_cast<double>(t.counts.abandoned), "count");
  add("ft.ckpt.ns_per_tuple", ckpt_ns - log_only.ns_per_tuple, "ns");
  add("ft.ckpt.align_ms_p50", span_p50(t.spans, &EpochSpans::align_ms), "ms");
  add("ft.ckpt.serialize_ms_p50", span_p50(t.spans, &EpochSpans::serialize_ms),
      "ms");
  add("ft.ckpt.write_ms_p50", span_p50(t.spans, &EpochSpans::write_ms), "ms");
  add("ft.ckpt.commit_ms_p50", span_p50(t.spans, &EpochSpans::commit_ms),
      "ms");
  add("ft.ckpt.bytes_p50", median(t.ckpt_bytes), "bytes");
  // storage
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    add(std::string("storage.writes.") + kKindNames[i],
        static_cast<double>(t.writes[i]), "count");
  }
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    add(std::string("storage.reads.") + kKindNames[i],
        static_cast<double>(t.reads[i]), "count");
  }
  add("storage.append_us", st.append_us, "us");
  add("storage.write_artifact_ms", st.write_artifact_ms, "ms");
  add("storage.read_artifact_ms", st.read_artifact_ms, "ms");
  add("storage.crc32c_gbps", st.crc32c_gbps, "GB/s");
  // ft.recovery
  add("ft.recovery.construct_ms", median(t.construct_ms), "ms");
  add("ft.recovery.disk_ms", median(t.disk_ms), "ms");
  add("ft.recovery.other_ms", median(t.other_ms), "ms");
  add("ft.recovery.replay_enqueue_ms", median(t.replay_ms), "ms");
  add("ft.recovery.drain_ms", median(t.drain_ms), "ms");
  add("ft.recovery.bytes_read", median(t.bytes_read), "bytes");
  add("ft.recovery.replayed_tuples", median(t.replayed), "count");
  add("ft.recovery.chain_len", median(t.chain_len), "count");
  add("ft.recovery.fallbacks", static_cast<double>(t.fallbacks), "count");
  // The traced pass's own overhead: its end-to-end metrics minus those of
  // the untraced pass that ran first, at the same length.
  Report traced, untraced;
  add_end_to_end(traced, t);
  add_end_to_end(untraced, base);
  for (std::size_t i = 0; i < traced.metrics.size(); ++i) {
    add("trace.overhead." + traced.metrics[i].name,
        traced.metrics[i].value - untraced.metrics[i].value,
        traced.metrics[i].unit);
  }
}

Report Bench::run() {
  std::error_code ec;
  fs::create_directories(opt_.dir, ec);
  Report r;
  if (!opt_.trace) {
    add_end_to_end(r, pass(opt_.seconds));
  } else {
    // Untraced reference first, then the traced pass and the adjacent
    // configurations: the passes at half the run length, sweeps a quarter.
    const Measured base = pass(opt_.seconds / 2);
    Tracer tracer;
    tracer_ = &tracer;
    const Measured t = pass(opt_.seconds / 2);
    const double sweep = opt_.seconds / 4;
    const LoopStats engine_only = closed_loop(false, false, sweep);
    const LoopStats log_only = closed_loop(true, false, sweep);
    // saturate's measured window already is the periodic-on configuration.
    const double ckpt_ns =
        spec_.steady && !spec_.paced
            ? t.phase_s * 1e9 /
                  static_cast<double>(std::max<std::int64_t>(1, t.delivered))
            : closed_loop(true, true, sweep).ns_per_tuple;
    const StorageTimings st = time_storage(
        data_dir(),
        static_cast<std::size_t>(std::llround(log_only.bytes_per_tuple)),
        t.state);
    tracer_ = nullptr;
    add_per_layer(r, t, base, engine_only, log_only, ckpt_ns, st);
  }
  close_world();
  fs::remove_all(opt_.dir, ec);
  r.ops = {tuples_acct_, keys_acct_, epochs_acct_, recoveries_acct_};
  r.correct = ok_ && tuples_acct_.failed == 0 && keys_acct_.failed == 0 &&
              recoveries_acct_.failed == 0;
  r.errors = errors_;
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Spec& s : kSpecs) v.emplace_back(s.name);
    return v;
  }();
  return names;
}

Report run(const Options& opt) {
  for (const Spec& s : kSpecs) {
    if (opt.workload == s.name) return Bench(s, opt).run();
  }
  Report r;
  r.correct = false;
  r.errors.push_back("unknown workload " + opt.workload);
  return r;
}

}  // namespace e2e
