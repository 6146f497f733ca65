#include "ft/verify.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "ft/epoch_store.h"
#include "ft/source_log.h"

namespace ms::ft {

namespace fs = std::filesystem;

namespace {

const storage::DurableOptions kReadOnly{storage::SyncMode::kNone, nullptr};

/// Record one file's verdict; true when it verified.
bool tally(const std::string& path, const Status& st, std::uint64_t bytes,
           ScrubReport* report) {
  if (!st.is_ok()) {
    report->issues.push_back({path, st.message()});
    return false;
  }
  ++report->artifacts;
  report->verified_bytes += bytes;
  return true;
}

/// Frame-verify every blob of an epoch whose manifest is unusable: without
/// recorded sizes nothing is cross-checked, but a damaged blob is named.
void scrub_unlisted_blobs(const std::string& edir, ScrubReport* report) {
  std::vector<fs::path> blobs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(edir, ec)) {
    const fs::path ext = entry.path().extension();
    if (ext == ".ckpt" || ext == ".delta") blobs.push_back(entry.path());
  }
  std::sort(blobs.begin(), blobs.end());
  for (const fs::path& path : blobs) {
    std::vector<std::uint8_t> blob;
    const Status st = storage::read_artifact(
        path.string(),
        path.extension() == ".delta" ? storage::ArtifactKind::kDelta
                                     : storage::ArtifactKind::kCheckpoint,
        kReadOnly, &blob);
    tally(path.string(), st, blob.size(), report);
  }
}

void scrub_epoch(const std::string& dir, std::uint64_t epoch,
                 const std::vector<std::uint64_t>& epoch_dirs,
                 ScrubReport* report) {
  const std::string mpath = manifest_path(dir, epoch);
  auto read = read_manifest(dir, epoch, kReadOnly);
  if (read.status().code() == StatusCode::kNotFound) {
    ++report->incomplete;  // crash mid-checkpoint: the epoch never existed
    return;
  }
  ++report->epochs;
  if (!tally(mpath, read.status(), 0, report)) {
    // The checks below need its sizes.
    scrub_unlisted_blobs(epoch_dir_path(dir, epoch), report);
    return;
  }
  const EpochManifest& m = read.value();
  if (m.prev_epoch != 0 &&
      !std::binary_search(epoch_dirs.begin(), epoch_dirs.end(), m.prev_epoch)) {
    report->issues.push_back(
        {mpath, "chain predecessor epoch " + std::to_string(m.prev_epoch) +
                    " is missing"});
  }
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    const int op = static_cast<int>(i);
    std::vector<std::uint8_t> blob;
    const Status st = read_blob(dir, epoch, op, m.ops[i], kReadOnly, &blob);
    tally(blob_path(dir, epoch, op, m.ops[i].delta), st, blob.size(), report);
  }
}

/// Record a break in a record-index run: `index` follows `prev` in `path`.
void report_break(const std::string& path, std::uint64_t prev,
                  std::uint64_t index, const std::string& where,
                  ScrubReport* report) {
  report->issues.push_back(
      {path, index > prev
                 ? "records " + std::to_string(prev + 1) + ".." +
                       std::to_string(index - 1) + " missing" + where
                 : "record " + std::to_string(index) + " out of order after " +
                       std::to_string(prev) + where});
}

/// Scrub one source's segments, `files` in index order (its sealed
/// segments, then its head): each file's frames, each sealed segment's
/// batches against its name's range, and the record-index run within and
/// across the files. A sealed segment joins the run by its name's range, so
/// one that does not verify still shows where the run breaks.
void scrub_source_log(const std::vector<SourceLogFile>& files,
                      const std::string& head, ScrubReport* report) {
  ScrubLog run;
  run.path = head;
  bool joined = false;  // a previous file placed `prev`
  std::uint64_t prev = 0;
  for (const SourceLogFile& f : files) {
    ++run.segments;
    LogView view;
    const LogScan& scan = view.scan;
    const Status st = read_source_log(f.path, kReadOnly, &view);
    const bool read = tally(f.path, st, scan.valid_bytes, report);
    const std::vector<LogFrameView>& frames = scan.frames;
    if (read && scan.torn) {
      report->issues.push_back(
          {f.path, std::string(f.sealed ? "torn sealed segment" : "torn tail") +
                       ": " +
                       std::to_string(view.bytes.size() - scan.valid_bytes) +
                       " unverifiable bytes past offset " +
                       std::to_string(scan.valid_bytes) + " (" +
                       std::to_string(frames.size()) + " whole batches)"});
    }
    if (read && f.sealed &&
        (frames.empty() || frames.front().first != f.first ||
         frames.back().end() != f.last + 1)) {
      report->issues.push_back(
          {f.path, "name range " + std::to_string(f.first) + "-" +
                       std::to_string(f.last) +
                       " disagrees with its batches (" +
                       (frames.empty()
                            ? std::string("none")
                            : std::to_string(frames.front().first) + ".." +
                                  std::to_string(frames.back().end() - 1)) +
                       ")"});
    }
    // Where this file sits in the run: a sealed segment by its name.
    if (f.sealed || !frames.empty()) {
      const std::uint64_t first = f.sealed ? f.first : frames.front().first;
      if (joined && first != prev + 1) {
        report_break(f.path, prev, first, " between segments", report);
      }
      joined = true;
      prev = f.sealed ? f.last : frames.back().end() - 1;
    }
    if (frames.empty()) continue;
    if (run.batches == 0) run.first_index = frames.front().first;
    run.last_index = frames.back().end() - 1;
    run.batches += frames.size();
    for (const LogFrameView& frame : frames) run.records += frame.n;
    for (std::size_t k = 0; k < frames.size();) {
      const std::size_t end = index_run_end(frames, k, frames[k].first);
      if (end < frames.size()) {
        report_break(f.path, frames[end - 1].end() - 1, frames[end].first, "",
                     report);
      }
      k = end;
    }
  }
  report->logs.push_back(std::move(run));
}

}  // namespace

ScrubReport scrub_checkpoint_dir(const std::string& dir) {
  ScrubReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return report;
  std::vector<std::string> unparseable;
  const std::vector<std::uint64_t> epochs = list_epoch_dirs(dir, &unparseable);
  for (const std::string& path : unparseable) {
    report.issues.push_back({path, "unparseable epoch directory name"});
  }
  for (const std::uint64_t epoch : epochs) {
    scrub_epoch(dir, epoch, epochs, &report);
  }
  std::vector<std::string> unnamed;
  const std::vector<SourceLogFile> logs = list_source_logs(dir, &unnamed);
  for (const std::string& path : unnamed) {
    report.issues.push_back({path, "unparseable source log name"});
  }
  for (auto it = logs.begin(); it != logs.end();) {
    const auto end = std::find_if(it, logs.end(), [op = it->op](const auto& f) {
      return f.op != op;
    });
    scrub_source_log({it, end}, source_log_path(dir, it->op), &report);
    it = end;
  }
  return report;
}

}  // namespace ms::ft
