// msverify — offline integrity scrub of an rt checkpoint directory.
//
// Walks every durable artifact the runtime writes (epoch MANIFESTs, op_<i>.ckpt
// / op_<i>.delta blobs, the frames of each source's segments source_<i>.log and
// source_<i>.<first>-<last>.log), verifies frame CRCs, cross-checks blob sizes
// against their manifest, and prints a per-epoch / per-file verdict followed
// by each source log's batch count and record-index run across its segments
// (a gap in the run, a torn sealed segment or one whose batches contradict its
// name's range is reported as corrupt, naming the file). Read-only: running it
// against a live directory is safe, though a commit or a log append racing the
// scrub can surface transient findings (an incomplete epoch, a short or torn
// log read).
//
//   msverify --dir /path/to/ckpts     # exit 0 clean, 1 when issues found
//   msverify --dir /path/to/ckpts -q  # verdict only, no per-file detail
#include <cstdio>
#include <cstring>
#include <string>

#include "ft/verify.h"

int main(int argc, char** argv) {
  std::string dir;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "-q") == 0 ||
               std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: msverify --dir <checkpoint-dir> [-q]\n");
      return 0;
    } else if (dir.empty() && argv[i][0] != '-') {
      dir = argv[i];  // bare positional also accepted
    } else {
      std::fprintf(stderr, "msverify: unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: msverify --dir <checkpoint-dir> [-q]\n");
    return 2;
  }

  const ms::ft::ScrubReport report = ms::ft::scrub_checkpoint_dir(dir);
  if (!quiet) {
    for (const auto& issue : report.issues) {
      std::fprintf(stderr, "CORRUPT %s: %s\n", issue.path.c_str(),
                   issue.detail.c_str());
    }
  }
  std::printf(
      "%s: %d committed epoch(s), %d incomplete, %d artifact(s) verified "
      "(%llu bytes), %zu issue(s)\n",
      report.clean() ? "clean" : "CORRUPT", report.epochs, report.incomplete,
      report.artifacts,
      static_cast<unsigned long long>(report.verified_bytes),
      report.issues.size());
  if (!quiet) {
    for (const auto& log : report.logs) {
      if (log.batches == 0) {
        std::printf("log %s: empty\n", log.path.c_str());
      } else {
        std::printf("log %s: %llu batch(es) of %llu record(s), index "
                    "%llu..%llu, %llu file(s)\n",
                    log.path.c_str(),
                    static_cast<unsigned long long>(log.batches),
                    static_cast<unsigned long long>(log.records),
                    static_cast<unsigned long long>(log.first_index),
                    static_cast<unsigned long long>(log.last_index),
                    static_cast<unsigned long long>(log.segments));
      }
    }
  }
  return report.clean() ? 0 : 1;
}
