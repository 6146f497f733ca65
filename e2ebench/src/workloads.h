// The benchmark's workloads and what one run of a workload reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for durable state; created and removed by the run.
  std::string dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Operations of one kind: how many were attempted and how many failed.
/// `counted` = false marks failures that are reported but not charged to
/// the run (abandoned epochs on the saturating workload).
struct OpCount {
  std::string kind;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool counted = true;
};

struct Report {
  /// The correctness oracle passed: every tuple delivered exactly once, the
  /// keyed state equal to the reference, every recovery OK.
  bool correct = true;
  std::vector<OpCount> ops;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
};

/// Names run() accepts, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

Report run(const Options& opt);

}  // namespace e2e
