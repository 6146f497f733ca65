// mstrace — summarize and validate a Chrome trace-event JSON produced by
// mssim --trace (either backend) or any TraceRecorder export.
//
// Summary mode groups checkpoint spans by correlation id (the args.id each
// protocol span carries) and prints, per epoch, the token-collection /
// fork / serialize / disk-io breakdown of every HAU plus the critical path
// (the slowest HAU's phase chain, which bounds the epoch's end-to-end
// time). Recovery spans print as a phase1-4 chain. Storage operations are
// aggregated per op kind.
//
//   mstrace trace.json             # human summary
//   mstrace --check trace.json    # validate; exit 1 on structural problems
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"

namespace {

using namespace ms;

std::string ms_str(std::int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(ns) / 1e6);
  return buf;
}

int run_check(const std::vector<TraceEvent>& events) {
  const std::vector<std::string> problems = check_trace(events);
  if (problems.empty()) {
    std::printf("ok: %zu events, no structural problems\n", events.size());
    return 0;
  }
  for (const auto& p : problems) {
    std::fprintf(stderr, "problem: %s\n", p.c_str());
  }
  std::fprintf(stderr, "%zu problem(s) in %zu events\n", problems.size(),
               events.size());
  return 1;
}

/// Track (pid, tid) → display name from the trace's metadata events.
std::map<std::pair<int, int>, std::string> track_names(
    const std::vector<TraceEvent>& events) {
  // Metadata args are numeric-only in our reader, so recover names from the
  // convention instead: controller tid 0, HAU tids 1.., storage pid 1.
  std::map<std::pair<int, int>, std::string> names;
  for (const auto& e : events) {
    const auto key = std::make_pair(e.pid, e.tid);
    if (names.contains(key)) continue;
    std::string n;
    if (e.pid == trace_track::kStoragePid) {
      n = "shared-storage";
    } else if (e.tid == trace_track::kControllerTid) {
      n = "controller";
    } else {
      n = "hau" + std::to_string(e.tid - 1);
    }
    names[key] = std::move(n);
  }
  return names;
}

void summarize(const std::vector<TraceEvent>& events) {
  std::vector<std::string> problems;
  const std::vector<TraceSpan> spans = pair_spans(events, &problems);
  const auto names = track_names(events);

  // --- checkpoint epochs: id → track → phase spans -------------------------
  struct PhaseSpan {
    std::string name;
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;
  };
  std::map<std::uint64_t, std::map<std::pair<int, int>, std::vector<PhaseSpan>>>
      epochs;
  std::map<std::uint64_t, std::vector<const TraceSpan*>> recoveries;
  std::map<std::string, std::pair<int, std::int64_t>> storage_ops;
  for (const auto& s : spans) {
    if (s.pid == trace_track::kStoragePid) {
      auto& [count, total] = storage_ops[s.name.substr(0, s.name.find(' '))];
      ++count;
      total += s.dur_ns;
      continue;
    }
    if (s.cat == "checkpoint") {
      epochs[s.id][{s.pid, s.tid}].push_back(PhaseSpan{s.name, s.ts_ns, s.dur_ns});
    } else if (s.cat == "recovery") {
      recoveries[s.id].push_back(&s);
    }
  }

  std::printf("%zu events, %zu spans, %zu checkpoint epoch(s), "
              "%zu recovery run(s)\n",
              events.size(), spans.size(), epochs.size(), recoveries.size());

  for (auto& [id, tracks] : epochs) {
    std::printf("\ncheckpoint epoch %llu\n",
                static_cast<unsigned long long>(id));
    // The critical path is the slowest track: the epoch completes only when
    // the last HAU's phase chain finishes.
    std::pair<int, int> slowest{-1, -1};
    std::int64_t slowest_total = -1;
    for (auto& [track, phases] : tracks) {
      std::sort(phases.begin(), phases.end(),
                [](const PhaseSpan& a, const PhaseSpan& b) {
                  return a.ts_ns < b.ts_ns;
                });
      std::int64_t total = 0;
      std::ostringstream line;
      for (const auto& p : phases) {
        // The umbrella span ("recovery", outermost) overlaps its phases;
        // checkpoint tracks carry disjoint phases only.
        total += p.dur_ns;
        if (line.tellp() > 0) line << " -> ";
        line << p.name << " " << ms_str(p.dur_ns);
      }
      const auto it = names.find(track);
      std::printf("  %-10s %s  (total %s)\n",
                  it != names.end() ? it->second.c_str() : "?",
                  line.str().c_str(), ms_str(total).c_str());
      if (total > slowest_total) {
        slowest_total = total;
        slowest = track;
      }
    }
    if (slowest_total >= 0) {
      const auto it = names.find(slowest);
      std::printf("  critical path: %s (%s)\n",
                  it != names.end() ? it->second.c_str() : "?",
                  ms_str(slowest_total).c_str());
    }
  }

  for (auto& [id, runs] : recoveries) {
    std::printf("\nrecovery %llu\n", static_cast<unsigned long long>(id));
    std::sort(runs.begin(), runs.end(),
              [](const TraceSpan* a, const TraceSpan* b) {
                if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                return a->dur_ns > b->dur_ns;  // umbrella before its phases
              });
    for (const TraceSpan* s : runs) {
      const auto it = names.find({s->pid, s->tid});
      std::printf("  %-10s %-18s %s\n",
                  it != names.end() ? it->second.c_str() : "?",
                  s->name.c_str(), ms_str(s->dur_ns).c_str());
    }
  }

  if (!storage_ops.empty()) {
    std::printf("\nstorage operations\n");
    for (const auto& [op, agg] : storage_ops) {
      std::printf("  %-10s x%-6d total %s\n", op.c_str(), agg.first,
                  ms_str(agg.second).c_str());
    }
  }

  if (!problems.empty()) {
    std::printf("\n%zu structural problem(s); run --check for details\n",
                problems.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  const char* file = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf("mstrace [--check] TRACE.json — summarize or validate a "
                  "Chrome trace-event JSON\n");
      return 0;
    } else {
      file = argv[i];
    }
  }
  if (file == nullptr) {
    std::fprintf(stderr, "usage: mstrace [--check] TRACE.json\n");
    return 2;
  }
  std::ifstream in(file);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read %s\n", file);
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<ms::TraceEvent> events;
  const ms::Status st = ms::parse_chrome_trace(buf.str(), &events);
  if (!st.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", file, st.to_string().c_str());
    return 2;
  }
  if (check) return run_check(events);
  summarize(events);
  return 0;
}
