// mssim — command-line driver for the Meteor Shower simulator.
//
// Runs one of the three paper applications under a chosen fault-tolerance
// scheme on the simulated 56-node cluster, optionally injecting a failure,
// and prints a run report: throughput, latency, checkpoint and recovery
// statistics, network byte breakdown, and the dynamic state profile.
//
//   mssim --app tmi --scheme ms-src+ap+aa --checkpoints 3
//   mssim --app signalguru --scheme ms-src+ap --fail-at 300 --window 10
//   mssim --app bcp --scheme baseline --checkpoints 8 --window 5
//
// With --backend=rt the same fault-tolerance protocol drives the
// real-threads engine instead of the simulator: a demo pipeline runs on
// actual worker threads for --run-for wall seconds, checkpointing to
// --dir, optionally crashing mid-run (--fail-at, wall seconds) and
// recovering by restart-and-replay:
//
//   mssim --backend=rt --scheme ms-src+ap --run-for 3 --fail-at 1.5
//         --trace rt_trace.json     (one command line)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "core/stdops.h"
#include "failure/burst.h"
#include "ft/rt_runtime.h"
#include "ft/tracing.h"
#include "harness.h"
#include "net/network.h"
#include "rt/engine.h"

namespace {

using namespace ms;
using namespace ms::bench;

struct Options {
  AppKind app = AppKind::kTmi;
  Scheme scheme = Scheme::kMsSrcAp;
  int checkpoints = 3;
  int window_minutes = 10;
  double fail_at_seconds = -1.0;  // <0: no failure injection
  std::uint64_t seed = 0x9d2cULL;
  std::string trace_file;    // empty: no trace capture
  std::string metrics_file;  // empty: no metrics dump
  bool backend_rt = false;   // --backend=rt: real threads, wall clock
  double run_for_seconds = 2.0;               // rt: measurement window
  std::string rt_dir = "/tmp/mssim_rt";       // rt: durable directory
  bool auto_recover = false;  // rt: supervised self-heal instead of a manual
                              // restart-and-recover after --fail-at
  // rt: fsync discipline for durable artifacts. kNone by default — mssim is
  // a measurement tool, not a production deployment — so bench numbers are
  // not dominated by the disk.
  storage::SyncMode sync_mode = storage::SyncMode::kNone;
  std::string net_faults;     // sim: unreliable-channel spec, see usage()
  bool help = false;
};

void usage() {
  std::printf(
      "mssim — Meteor Shower cluster simulator\n\n"
      "  --backend sim|rt             sim: discrete-event simulator (default)\n"
      "                               rt: the same protocol on the\n"
      "                               real-threads engine (demo pipeline)\n"
      "  --app tmi|bcp|signalguru     application (default tmi, sim only)\n"
      "  --scheme baseline|ms-src|ms-src+ap|ms-src+ap+aa|ms-src+ap+delta\n"
      "                               fault-tolerance scheme (default ms-src+ap;\n"
      "                               baseline is sim only)\n"
      "  --checkpoints N              checkpoints in the window (default 3)\n"
      "  --window M                   measurement window, minutes (default 10,\n"
      "                               sim only)\n"
      "  --run-for S                  rt only: wall-clock window, seconds\n"
      "                               (default 2)\n"
      "  --dir PATH                   rt only: durable directory for\n"
      "                               checkpoints and source logs (wiped at\n"
      "                               start; default /tmp/mssim_rt)\n"
      "  --fail-at S                  sim: kill all application nodes S\n"
      "                               seconds into the window; rt: crash the\n"
      "                               process S wall seconds in. Both\n"
      "                               auto-recover\n"
      "  --sync-mode none|commit|always\n"
      "                               rt only: fsync discipline for durable\n"
      "                               artifacts (default none: page cache\n"
      "                               only, so measurements are not disk-\n"
      "                               bound; commit syncs rename commit\n"
      "                               points; always adds per-append syncs)\n"
      "  --auto-recover               rt only: run the heartbeat failure\n"
      "                               detector and let the runtime heal\n"
      "                               the --fail-at crash in place (no\n"
      "                               manual restart)\n"
      "  --net-faults SPEC            sim only: run the window over an\n"
      "                               unreliable network. SPEC is\n"
      "                               comma-separated key=value pairs:\n"
      "                               drop, dup, reorder, delayp (probabili-\n"
      "                               ties), delay (seconds), and\n"
      "                               cats=token+control (which categories;\n"
      "                               'all' for every one; default\n"
      "                               token+control). Seeded from --seed.\n"
      "                               e.g. --net-faults drop=0.05,dup=0.02\n"
      "  --seed X                     simulation seed\n"
      "  --trace FILE                 write a Chrome trace-event JSON of the\n"
      "                               run's protocol events (chrome://tracing\n"
      "                               or tools/mstrace can read it); both\n"
      "                               backends: per-unit checkpoint phases\n"
      "                               and recovery phases 1-4\n"
      "  --metrics FILE               write the runtime metrics registry as\n"
      "                               flat JSON at exit\n"
      "  --help\n");
}

bool parse(int argc, char** argv, Options* opt) {
  // Accept both "--flag value" and "--flag=value".
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return args[++i].c_str();
    };
    if (arg == "--help" || arg == "-h") {
      opt->help = true;
      return true;
    }
    if (arg == "--app") {
      const char* v = next("--app");
      if (v == nullptr) return false;
      if (std::strcmp(v, "tmi") == 0) {
        opt->app = AppKind::kTmi;
      } else if (std::strcmp(v, "bcp") == 0) {
        opt->app = AppKind::kBcp;
      } else if (std::strcmp(v, "signalguru") == 0) {
        opt->app = AppKind::kSignalGuru;
      } else {
        std::fprintf(stderr, "unknown app: %s\n", v);
        return false;
      }
    } else if (arg == "--scheme") {
      const char* v = next("--scheme");
      if (v == nullptr) return false;
      if (std::strcmp(v, "baseline") == 0) {
        opt->scheme = Scheme::kBaseline;
      } else if (std::strcmp(v, "ms-src") == 0) {
        opt->scheme = Scheme::kMsSrc;
      } else if (std::strcmp(v, "ms-src+ap") == 0) {
        opt->scheme = Scheme::kMsSrcAp;
      } else if (std::strcmp(v, "ms-src+ap+aa") == 0) {
        opt->scheme = Scheme::kMsSrcApAa;
      } else if (std::strcmp(v, "ms-src+ap+delta") == 0) {
        opt->scheme = Scheme::kMsSrcApDelta;
      } else {
        std::fprintf(stderr, "unknown scheme: %s\n", v);
        return false;
      }
    } else if (arg == "--backend") {
      const char* v = next("--backend");
      if (v == nullptr) return false;
      if (std::strcmp(v, "sim") == 0) {
        opt->backend_rt = false;
      } else if (std::strcmp(v, "rt") == 0) {
        opt->backend_rt = true;
      } else {
        std::fprintf(stderr, "unknown backend: %s\n", v);
        return false;
      }
    } else if (arg == "--run-for") {
      const char* v = next("--run-for");
      if (v == nullptr) return false;
      opt->run_for_seconds = std::atof(v);
    } else if (arg == "--dir") {
      const char* v = next("--dir");
      if (v == nullptr) return false;
      opt->rt_dir = v;
    } else if (arg == "--checkpoints") {
      const char* v = next("--checkpoints");
      if (v == nullptr) return false;
      opt->checkpoints = std::atoi(v);
    } else if (arg == "--window") {
      const char* v = next("--window");
      if (v == nullptr) return false;
      opt->window_minutes = std::atoi(v);
    } else if (arg == "--auto-recover") {
      opt->auto_recover = true;
    } else if (arg == "--sync-mode") {
      const char* v = next("--sync-mode");
      if (v == nullptr) return false;
      const std::string s = v;
      if (s == "none") {
        opt->sync_mode = storage::SyncMode::kNone;
      } else if (s == "commit") {
        opt->sync_mode = storage::SyncMode::kCommit;
      } else if (s == "always") {
        opt->sync_mode = storage::SyncMode::kAlways;
      } else {
        std::fprintf(stderr, "unknown --sync-mode: %s\n", v);
        return false;
      }
    } else if (arg == "--net-faults") {
      const char* v = next("--net-faults");
      if (v == nullptr) return false;
      opt->net_faults = v;
    } else if (arg == "--fail-at") {
      const char* v = next("--fail-at");
      if (v == nullptr) return false;
      opt->fail_at_seconds = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      opt->seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return false;
      opt->trace_file = v;
    } else if (arg == "--metrics") {
      const char* v = next("--metrics");
      if (v == nullptr) return false;
      opt->metrics_file = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// "drop=0.05,dup=0.02,reorder=0.1,delayp=0.05,delay=0.001,cats=token+control"
/// → a seeded FaultPlan. One FaultSpec is parsed and applied to every listed
/// category (default token+control, the protocol's loss-sensitive channels).
bool parse_net_faults(const std::string& spec, std::uint64_t seed,
                      net::FaultPlan* plan) {
  net::FaultSpec fault;
  std::vector<net::MsgCategory> cats = {net::MsgCategory::kToken,
                                        net::MsgCategory::kControl};
  std::size_t pos = 0;
  while (pos < spec.size()) {
    auto end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string pair = spec.substr(pos, end - pos);
    pos = end + 1;
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "--net-faults: expected key=value, got '%s'\n",
                   pair.c_str());
      return false;
    }
    const std::string key = pair.substr(0, eq);
    const std::string val = pair.substr(eq + 1);
    if (key == "drop") {
      fault.drop = std::atof(val.c_str());
    } else if (key == "dup") {
      fault.duplicate = std::atof(val.c_str());
    } else if (key == "reorder") {
      fault.reorder = std::atof(val.c_str());
    } else if (key == "delayp") {
      fault.delay_p = std::atof(val.c_str());
    } else if (key == "delay") {
      fault.delay = SimTime::seconds(std::atof(val.c_str()));
    } else if (key == "cats") {
      cats.clear();
      std::size_t cpos = 0;
      while (cpos <= val.size()) {
        auto cend = val.find('+', cpos);
        if (cend == std::string::npos) cend = val.size();
        const std::string name = val.substr(cpos, cend - cpos);
        cpos = cend + 1;
        if (name == "all") {
          for (int c = 0; c < static_cast<int>(net::MsgCategory::kCount); ++c) {
            cats.push_back(static_cast<net::MsgCategory>(c));
          }
          continue;
        }
        bool found = false;
        for (int c = 0; c < static_cast<int>(net::MsgCategory::kCount); ++c) {
          const auto cat = static_cast<net::MsgCategory>(c);
          if (name == net::msg_category_name(cat)) {
            cats.push_back(cat);
            found = true;
            break;
          }
        }
        if (!found) {
          std::fprintf(stderr, "--net-faults: unknown category '%s'\n",
                       name.c_str());
          return false;
        }
      }
    } else {
      std::fprintf(stderr, "--net-faults: unknown key '%s'\n", key.c_str());
      return false;
    }
  }
  plan->seed = seed == 0 ? 1 : seed;
  for (const auto cat : cats) plan->spec(cat) = fault;
  return true;
}

// --- real-threads backend ---------------------------------------------------

/// Payload for the rt demo pipeline: one integer, 64 declared bytes.
struct RtIntPayload final : core::Payload {
  explicit RtIntPayload(std::int64_t v) : value(v) {}
  std::int64_t value;
  Bytes byte_size() const override { return 64; }
  const char* type_name() const override { return "rt-int"; }
};

/// Keyed relay: per-key running sums as checkpointable state, with dirty-key
/// tracking so the ms-src+ap+delta scheme writes real op_<i>.delta chains in
/// the demo (other schemes ignore the delta hooks and serialize fully).
class RtRelay final : public core::Operator {
 public:
  explicit RtRelay(std::string name) : core::Operator(std::move(name)) {}
  void process(int, const core::Tuple& t, core::OperatorContext& ctx) override {
    const std::int64_t v = t.payload_as<RtIntPayload>()->value;
    const std::int64_t key = v % 64;
    table_[key] += v;
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

 private:
  std::map<std::int64_t, std::int64_t> table_;
  std::set<std::int64_t> dirty_;
};

/// Counting sink; the count is its checkpointable state.
class RtCountSink final : public core::Operator {
 public:
  explicit RtCountSink(std::string name) : core::Operator(std::move(name)) {}
  void process(int, const core::Tuple&, core::OperatorContext&) override {
    ++count_;
  }
  Bytes state_size() const override { return 8; }
  void serialize_state(BinaryWriter& w) const override { w.write(count_); }
  void deserialize_state(BinaryReader& r) override {
    count_ = r.read<std::int64_t>();
  }
  void clear_state() override { count_ = 0; }
  std::int64_t count() const { return count_; }

 private:
  std::int64_t count_ = 0;
};

core::QueryGraph rt_demo_graph() {
  core::QueryGraph g;
  const int src = g.add_source("src", [] {
    return std::make_unique<core::BurstSourceOperator>(
        "src", SimTime::micros(500), 8,
        [](std::int64_t seq) {
          core::Tuple t;
          t.wire_size = 64;
          t.payload = std::make_shared<RtIntPayload>(seq);
          return t;
        });
  });
  const int r0 =
      g.add_operator("relay0", [] { return std::make_unique<RtRelay>("relay0"); });
  const int r1 =
      g.add_operator("relay1", [] { return std::make_unique<RtRelay>("relay1"); });
  const int sink = g.add_sink(
      "sink", [] { return std::make_unique<RtCountSink>("sink"); });
  g.connect(src, r0);
  g.connect(r0, r1);
  g.connect(r1, sink);
  return g;
}

ft::TupleCodec rt_demo_codec() {
  ft::TupleCodec codec;
  codec.encode_payload = [](const core::Payload& p, BinaryWriter& w) {
    w.write(static_cast<const RtIntPayload&>(p).value);
  };
  codec.decode_payload =
      [](BinaryReader& r) -> std::shared_ptr<const core::Payload> {
    return std::make_shared<RtIntPayload>(r.read<std::int64_t>());
  };
  return codec;
}

int run_rt_backend(const Options& opt) {
  ft::RtMode mode = ft::RtMode::kSrcAp;
  switch (opt.scheme) {
    case Scheme::kBaseline:
      std::fprintf(stderr, "--scheme baseline runs on the simulator backend "
                           "(--backend sim); the rt backend runs the "
                           "exactly-once MS schemes\n");
      return 2;
    case Scheme::kMsSrc:
      mode = ft::RtMode::kSrc;
      break;
    case Scheme::kMsSrcAp:
      mode = ft::RtMode::kSrcAp;
      break;
    case Scheme::kMsSrcApAa:
      mode = ft::RtMode::kSrcApAa;
      break;
    case Scheme::kMsSrcApDelta:
      mode = ft::RtMode::kSrcApDelta;
      break;
  }
  const SimTime window = SimTime::seconds(opt.run_for_seconds);
  const SimTime period = window / std::int64_t{opt.checkpoints + 1};

  std::printf("mssim --backend=rt: demo chain under %s, ~%d checkpoint(s) "
              "in %.1f s of wall time\n",
              scheme_name(opt.scheme), opt.checkpoints, opt.run_for_seconds);

  std::filesystem::remove_all(opt.rt_dir);
  ft::RtRuntimeConfig cfg;
  cfg.mode = mode;
  cfg.dir = opt.rt_dir;
  cfg.params.periodic = true;
  cfg.params.checkpoint_period = period;
  if (mode == ft::RtMode::kSrcApAa) {
    cfg.params.state_sample_period = period / 8;
    cfg.params.profile_periods = 1;
    cfg.params.profile_period = period / 2;
    cfg.params.checkpoint_during_profiling = true;
  }
  if (mode == ft::RtMode::kSrcApDelta) {
    // Demo-scale cadence inputs: wall runs last seconds, not hours, so give
    // the controller an MTBF/budget it can act on within the window.
    cfg.params.mtbf = SimTime::seconds(60);
    cfg.params.recovery_budget = SimTime::seconds(2);
  }
  cfg.codec = rt_demo_codec();
  cfg.sync_mode = opt.sync_mode;
  cfg.auto_recover = opt.auto_recover;

  // One tracer on one steady clock for every runtime incarnation: a fresh
  // RtRuntime restarts its own clock, which would make the capture's
  // timestamps run backwards across the restart.
  TraceRecorder trace;
  const auto trace_epoch = std::chrono::steady_clock::now();
  auto trace_now = [trace_epoch] {
    return SimTime::nanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - trace_epoch)
                              .count());
  };
  ft::ProbeTracer tracer(&trace, trace_now);
  auto attach_tracer = [&](ft::RtRuntime& rt) {
    if (opt.trace_file.empty()) return;
    rt.add_probe([&tracer](ft::FtPoint p, int op, std::uint64_t id) {
      tracer.on(p, op, id);
    });
  };
  rt::RtConfig ecfg;
  ecfg.seed = opt.seed;
  if (!opt.metrics_file.empty()) ecfg.metrics = &MetricsRegistry::global();

  auto engine = std::make_unique<rt::RtEngine>(rt_demo_graph(), ecfg);
  auto runtime = std::make_unique<ft::RtRuntime>(engine.get(), cfg);
  if (!opt.trace_file.empty()) {
    trace.set_track_name(trace_track::kAppPid, trace_track::kControllerTid,
                         "controller");
    for (int i = 0; i < engine->num_operators(); ++i) {
      trace.set_track_name(trace_track::kAppPid, trace_track::hau_tid(i),
                           "op" + std::to_string(i));
    }
  }
  attach_tracer(*runtime);
  const Status st = runtime->start();
  if (!st.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.message().c_str());
    return 2;
  }

  const bool fail =
      opt.fail_at_seconds >= 0 && opt.fail_at_seconds < opt.run_for_seconds;
  bool recovered = false;
  ft::RecoveryStats recovery;
  auto sleep_wall = [](double seconds) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6)));
  };
  if (fail && opt.auto_recover) {
    // Crash in place; the heartbeat detector must notice the silence and
    // the runtime heal the same engine with no help from us.
    sleep_wall(opt.fail_at_seconds);
    const std::int64_t at_crash = engine->sink_tuples();
    runtime->simulate_crash();
    std::printf("crash at +%.1fs: %lld tuples at sink; waiting for the "
                "self-heal\n",
                opt.fail_at_seconds, static_cast<long long>(at_crash));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (runtime->auto_recoveries() >= 1 && runtime->health().is_ok() &&
          !runtime->crashed()) {
        recovered = true;
        break;
      }
      sleep_wall(0.01);
    }
    if (!recovered) {
      std::fprintf(stderr, "self-heal did not complete: %s\n",
                   runtime->health().to_string().c_str());
      return 1;
    }
    std::printf("self-healed: %llu automatic recover(ies), health OK\n",
                static_cast<unsigned long long>(runtime->auto_recoveries()));
    sleep_wall(opt.run_for_seconds - opt.fail_at_seconds);
  } else if (fail) {
    sleep_wall(opt.fail_at_seconds);
    const std::int64_t at_crash = engine->sink_tuples();
    runtime->simulate_crash();
    runtime->stop();
    std::printf("crash at +%.1fs: %lld tuples at sink; restarting from %s\n",
                opt.fail_at_seconds,
                static_cast<long long>(at_crash), opt.rt_dir.c_str());
    runtime.reset();  // detaches its hooks before the engine goes away
    engine = std::make_unique<rt::RtEngine>(rt_demo_graph(), ecfg);
    runtime = std::make_unique<ft::RtRuntime>(engine.get(), cfg);
    attach_tracer(*runtime);
    recovered = runtime->recover(&recovery).is_ok();
    if (!recovered) {
      std::fprintf(stderr, "recovery failed\n");
      return 1;
    }
    sleep_wall(opt.run_for_seconds - opt.fail_at_seconds);
  } else {
    sleep_wall(opt.run_for_seconds);
  }
  runtime->stop();
  // Stopped: the coordinator is safe to read.
  const std::uint64_t durable = runtime->last_durable_epoch();
  const std::uint64_t ckpts_completed =
      runtime->coordinator().checkpoints().size();

  std::printf("\n--- run report (real threads) ---\n");
  std::printf("tuples at sink:          %lld\n",
              static_cast<long long>(engine->sink_tuples()));
  std::printf("checkpoints completed:   %llu\n",
              static_cast<unsigned long long>(ckpts_completed));
  std::printf("last durable epoch:      %llu\n",
              static_cast<unsigned long long>(durable));
  if (fail && recovered && opt.auto_recover) {
    std::printf("self-heal:               %llu automatic recover(ies), "
                "0 manual\n",
                static_cast<unsigned long long>(runtime->auto_recoveries()));
  } else if (fail && recovered) {
    std::printf("recovery:                %d HAUs in %s (disk %s, replay %s)\n",
                recovery.haus_recovered, recovery.total().to_string().c_str(),
                recovery.disk_io.to_string().c_str(),
                recovery.reconnection.to_string().c_str());
  }

  if (!opt.trace_file.empty()) {
    trace.end_everything(trace_now());
    std::ofstream out(opt.trace_file);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_file.c_str());
      return 2;
    }
    trace.write_chrome_json(out);
    std::printf("\nwrote %zu trace events to %s\n", trace.size(),
                opt.trace_file.c_str());
  }
  if (!opt.metrics_file.empty()) {
    std::ofstream out(opt.metrics_file);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", opt.metrics_file.c_str());
      return 2;
    }
    MetricsRegistry::global().write_json(out);
    std::printf("wrote metrics to %s\n", opt.metrics_file.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    usage();
    return 2;
  }
  if (opt.help) {
    usage();
    return 0;
  }
  if (!opt.net_faults.empty() && opt.backend_rt) {
    std::fprintf(stderr, "--net-faults only applies to --backend=sim (the rt "
                         "engine has no simulated network)\n");
    return 2;
  }
  if (opt.auto_recover && !opt.backend_rt) {
    std::fprintf(stderr, "--auto-recover only applies to --backend=rt; the "
                         "sim scheme always recovers on --fail-at\n");
    return 2;
  }
  if (opt.backend_rt) return run_rt_backend(opt);
  const SimTime window = SimTime::minutes(opt.window_minutes);
  if (opt.scheme == Scheme::kBaseline && opt.fail_at_seconds >= 0) {
    std::fprintf(stderr,
                 "note: the baseline cannot recover from whole-application "
                 "failures;\n--fail-at is only supported with the MS "
                 "schemes.\n");
    return 2;
  }

  std::printf("mssim: %s under %s, %d checkpoint(s) in %d min (seed %llu)\n",
              app_name(opt.app), scheme_name(opt.scheme), opt.checkpoints,
              opt.window_minutes,
              static_cast<unsigned long long>(opt.seed));

  Experiment exp(opt.app, opt.scheme, opt.checkpoints, window, opt.seed,
                 opt.window_minutes);
  TraceRecorder trace;
  if (!opt.trace_file.empty()) exp.enable_tracing(&trace);
  exp.warmup();

  // Faults start after warmup so the unreliable window is the measured one.
  if (!opt.net_faults.empty()) {
    net::FaultPlan plan;
    if (!parse_net_faults(opt.net_faults, opt.seed, &plan)) return 2;
    exp.cluster().network().set_fault_plan(plan);
    std::printf("unreliable network: %s (seed %llu)\n", opt.net_faults.c_str(),
                static_cast<unsigned long long>(plan.seed));
  }

  bool recovered = false;
  ft::RecoveryStats recovery;
  if (opt.fail_at_seconds >= 0 && exp.ms() != nullptr) {
    exp.sim().schedule_after(SimTime::seconds(opt.fail_at_seconds), [&] {
      failure::FailureInjector injector(&exp.cluster(), &exp.app());
      injector.fail_whole_application();
      exp.ms()->recover_application(exp.spare_nodes(),
                                    [&](ft::RecoveryStats s) {
                                      recovered = true;
                                      recovery = s;
                                    });
    });
  }
  exp.measure();

  std::printf("\n--- run report ---\n");
  std::printf("tuples processed:        %.0f\n", exp.throughput_tuples());
  std::printf("mean latency:            %.1f ms (p99 %s)\n",
              exp.mean_latency_ms(),
              exp.app().latency().percentile(99).to_string().c_str());
  std::printf("checkpoints completed:   %d\n", exp.checkpoints_completed());
  if (exp.ms() != nullptr && !exp.ms()->checkpoints().empty()) {
    const auto& last = exp.ms()->checkpoints().back();
    std::printf("last checkpoint:         %s state in %s\n",
                format_bytes(last.total_declared).c_str(),
                last.total().to_string().c_str());
  }
  if (opt.fail_at_seconds >= 0) {
    if (recovered) {
      std::printf("failure at +%.0fs:        recovered %d HAUs in %s "
                  "(disk %s, reconnect %s)\n",
                  opt.fail_at_seconds, recovery.haus_recovered,
                  recovery.total().to_string().c_str(),
                  recovery.disk_io.to_string().c_str(),
                  recovery.reconnection.to_string().c_str());
    } else {
      std::printf("failure at +%.0fs:        RECOVERY DID NOT COMPLETE\n",
                  opt.fail_at_seconds);
    }
  }
  std::printf("dynamic state now:       %s\n",
              format_bytes(exp.dynamic_state()).c_str());

  const auto& stats = exp.cluster().network().stats();
  std::printf("\nnetwork bytes by category:\n");
  for (int c = 0; c < static_cast<int>(net::MsgCategory::kCount); ++c) {
    const auto cat = static_cast<net::MsgCategory>(c);
    std::printf("  %-11s %s\n", net::msg_category_name(cat),
                format_bytes(stats.bytes_of(cat)).c_str());
  }
  if (stats.dropped > 0 || stats.duplicated > 0) {
    std::printf("\ndropped messages by category (%lld total, %lld duplicate "
                "copies injected):\n",
                static_cast<long long>(stats.dropped),
                static_cast<long long>(stats.duplicated));
    for (int c = 0; c < static_cast<int>(net::MsgCategory::kCount); ++c) {
      const auto cat = static_cast<net::MsgCategory>(c);
      if (stats.dropped_of(cat) == 0) continue;
      std::printf("  %-11s %lld\n", net::msg_category_name(cat),
                  static_cast<long long>(stats.dropped_of(cat)));
    }
  }

  if (!opt.trace_file.empty()) {
    // The run stops mid-flight at the window edge; close any open epoch
    // spans so the exported trace balances.
    trace.end_everything(exp.sim().now());
    std::ofstream out(opt.trace_file);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_file.c_str());
      return 2;
    }
    trace.write_chrome_json(out);
    std::printf("\nwrote %zu trace events to %s\n", trace.size(),
                opt.trace_file.c_str());
  }
  if (!opt.metrics_file.empty()) {
    std::ofstream out(opt.metrics_file);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", opt.metrics_file.c_str());
      return 2;
    }
    MetricsRegistry::global().write_json(out);
    std::printf("wrote metrics to %s\n", opt.metrics_file.c_str());
  }
  return (opt.fail_at_seconds >= 0 && !recovered) ? 1 : 0;
}
