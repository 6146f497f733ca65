// e2ebench: end-to-end fault-tolerance benchmark on the real-threads engine
// (rt::RtEngine) with ft::RtRuntime attached, driven through public APIs.
//
//   e2ebench --workload saturate|paced|recover --seed N --seconds S
//            --trace 0|1 [--dir PATH]
//
// Prints every metric as "name value unit", the operations attempted and
// failed by kind, and as its last line one JSON object
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when the correctness oracle passed, 1 when it failed, 2 on a
// usage error. DESIGN.md in the parent directory explains the workloads.
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/log.h"
#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--dir PATH]\nworkloads:");
  for (const auto& w : e2e::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, e2e::Options* opt) {
  if (argc % 2 == 0) return false;  // a flag without its value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (flag == "--dir") {
      opt->dir = value;
    } else {
      return false;
    }
  }
  for (const auto& w : e2e::workload_names()) {
    if (w == opt->workload) return true;
  }
  return false;
}

/// JSON number with every digit the double carries.
std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // Abandoned epochs and recoveries are counted and reported below; the
  // library's per-event warnings would only interleave with them.
  ms::set_log_level(ms::LogLevel::kError);
  e2e::Options opt;
  if (!parse(argc, argv, &opt)) {
    usage();
    return 2;
  }
  if (opt.dir.empty()) {
    opt.dir = ".bench_build/e2e-data-" + std::to_string(::getpid());
  }
  const e2e::Report r = e2e::run(opt);

  for (const auto& m : r.metrics) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const auto& op : r.ops) {
    std::printf("ops %-12s attempted %lld failed %lld%s\n", op.kind.c_str(),
                static_cast<long long>(op.attempted),
                static_cast<long long>(op.failed),
                op.counted ? "" : " (reported, not counted as failures)");
    attempted += op.attempted;
    if (op.counted) failed += op.failed;
  }
  for (const auto& e : r.errors) std::fprintf(stderr, "error: %s\n", e.c_str());

  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct ? 0 : 1;
}
