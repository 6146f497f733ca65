// Offline integrity scrub of an rt checkpoint directory — the library behind
// tools/msverify. Walks every durable artifact the runtime writes (epoch
// manifests, checkpoint/delta blobs, source-log segments), verifies their
// MSDF frames, cross-checks blob sizes against their manifest, walks each
// source's segments in index order and reports its batch count and
// record-index run (a gap in it, within a segment or between two, is a lost
// record; a sealed segment whose batches contradict its name's range is
// damage), and reports per-file verdicts without modifying anything on
// disk. It reads through the same ft/epoch_store.h and ft/source_log.h
// functions recovery uses, and they through storage::scan_frames, so the
// two apply one rule set (one frame parser with its tear/damage rule, one
// index-run rule); the scrub exists so an operator can ask "which exact
// file is damaged?" before (or instead of) letting recovery fall back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ms::ft {

struct ScrubIssue {
  std::string path;    // the exact file (or directory) at fault
  std::string detail;  // what failed verification
};

/// One source log's record-index run across its segments, read from the
/// batch frames' index ranges without decoding the records.
struct ScrubLog {
  std::string path;               // the head segment's
  std::uint64_t segments = 0;     // files: sealed segments and the head
  std::uint64_t batches = 0;      // whole, verifiable frames
  std::uint64_t records = 0;      // the records those batches hold
  std::uint64_t first_index = 0;  // meaningful when batches > 0
  std::uint64_t last_index = 0;   // meaningful when batches > 0
};

struct ScrubReport {
  int epochs = 0;        // committed epoch dirs examined
  int incomplete = 0;    // epoch dirs without a MANIFEST (crash leftovers)
  int artifacts = 0;     // files whose frames were verified
  std::uint64_t verified_bytes = 0;
  std::vector<ScrubLog> logs;  // every source log, by op
  std::vector<ScrubIssue> issues;
  bool clean() const { return issues.empty(); }
};

/// Scrub `dir` (an RtRuntimeConfig::dir). Read-only; never throws. A missing
/// or empty directory yields an empty, clean report.
ScrubReport scrub_checkpoint_dir(const std::string& dir);

}  // namespace ms::ft
