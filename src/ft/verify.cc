#include "ft/verify.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <system_error>

#include "ft/durable_layout.h"
#include "storage/durable_file.h"

namespace ms::ft {

namespace fs = std::filesystem;

namespace {

/// Frame-verify one artifact file; returns true when the payload came back.
bool check_artifact(const std::string& path, storage::ArtifactKind kind,
                    std::vector<std::uint8_t>* payload, ScrubReport* report) {
  const storage::DurableOptions opts{storage::SyncMode::kNone, nullptr};
  const Status st = storage::read_artifact(path, kind, opts, payload);
  if (!st.is_ok()) {
    report->issues.push_back({path, st.message()});
    return false;
  }
  ++report->artifacts;
  report->verified_bytes += payload->size();
  return true;
}

/// Frame-verify every blob of an epoch whose manifest is unusable. Without
/// recorded sizes nothing can be cross-checked, but a blob that does not
/// verify is still named.
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
    (void)check_artifact(path.string(),
                         path.extension() == ".delta"
                             ? storage::ArtifactKind::kDelta
                             : storage::ArtifactKind::kCheckpoint,
                         &blob, report);
  }
}

void scrub_epoch(const std::string& dir, std::uint64_t epoch,
                 const std::map<std::uint64_t, bool>& epoch_dirs,
                 ScrubReport* report) {
  const std::string edir = dir + "/epoch_" + std::to_string(epoch);
  const std::string mpath = edir + "/MANIFEST";
  std::error_code ec;
  if (!fs::exists(mpath, ec)) {
    ++report->incomplete;  // crash mid-checkpoint: the epoch never existed
    return;
  }
  ++report->epochs;
  std::vector<std::uint8_t> payload;
  if (!check_artifact(mpath, storage::ArtifactKind::kManifest, &payload,
                      report)) {
    scrub_unlisted_blobs(edir, report);  // the checks below need its sizes
    return;
  }
  auto decoded = decode_manifest(payload, mpath);
  if (!decoded.is_ok()) {
    report->issues.push_back({mpath, decoded.status().message()});
    scrub_unlisted_blobs(edir, report);
    return;
  }
  const EpochManifest& m = decoded.value();
  if (m.epoch != epoch) {
    report->issues.push_back(
        {mpath, "manifest epoch " + std::to_string(m.epoch) +
                    " does not match directory epoch " +
                    std::to_string(epoch)});
  }
  if (m.prev_epoch != 0 && epoch_dirs.find(m.prev_epoch) == epoch_dirs.end()) {
    report->issues.push_back(
        {mpath, "chain predecessor epoch_" + std::to_string(m.prev_epoch) +
                    " is missing"});
  }
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    const EpochManifest::Op& op = m.ops[i];
    const std::string bpath = edir + "/op_" + std::to_string(i) +
                              (op.delta ? ".delta" : ".ckpt");
    std::error_code b_ec;
    if (!fs::exists(bpath, b_ec)) {
      if (op.size == 0) continue;  // an op that never reported writes nothing
      report->issues.push_back(
          {bpath, "blob missing (manifest records " +
                      std::to_string(op.size) + " bytes)"});
      continue;
    }
    std::vector<std::uint8_t> blob;
    if (!check_artifact(bpath,
                        op.delta ? storage::ArtifactKind::kDelta
                                 : storage::ArtifactKind::kCheckpoint,
                        &blob, report)) {
      continue;
    }
    if (blob.size() != op.size) {
      report->issues.push_back(
          {bpath, "size mismatch: manifest records " +
                      std::to_string(op.size) + " bytes, blob carries " +
                      std::to_string(blob.size())});
    }
  }
}

void scrub_source_log(const std::string& path, ScrubReport* report) {
  const storage::DurableOptions opts{storage::SyncMode::kNone, nullptr};
  std::vector<std::uint8_t> bytes;
  const Status st =
      storage::read_raw(path, storage::ArtifactKind::kSourceLog, opts, &bytes);
  if (!st.is_ok()) {
    report->issues.push_back({path, st.message()});
    return;
  }
  auto scanned = scan_log_bytes(bytes.data(), bytes.size(), path);
  if (!scanned.is_ok()) {
    report->issues.push_back({path, scanned.status().message()});
    return;
  }
  const LogScan& scan = scanned.value();
  ++report->artifacts;
  report->verified_bytes += scan.valid_bytes;
  if (scan.torn) {
    report->issues.push_back(
        {path, "torn tail: " + std::to_string(bytes.size() - scan.valid_bytes) +
                   " unverifiable bytes past offset " +
                   std::to_string(scan.valid_bytes) + " (" +
                   std::to_string(scan.frames.size()) + " whole frames)"});
  }
  ScrubLog run;
  run.path = path;
  run.records = scan.frames.size();
  for (std::size_t k = 0; k < scan.frames.size(); ++k) {
    const std::uint64_t index = scan.frames[k].index;
    if (k == 0) {
      run.first_index = index;
    } else if (index != run.last_index + 1) {
      // Indices are assigned consecutively at append, so anything but the
      // successor means records between the two are gone.
      report->issues.push_back(
          {path, index > run.last_index
                     ? "records " + std::to_string(run.last_index + 1) + ".." +
                           std::to_string(index - 1) + " missing"
                     : "record " + std::to_string(index) +
                           " out of order after " +
                           std::to_string(run.last_index)});
    }
    run.last_index = index;
  }
  report->logs.push_back(std::move(run));
}

void scrub_baseline(const std::string& path, ScrubReport* report) {
  std::vector<std::uint8_t> payload;
  if (!check_artifact(path, storage::ArtifactKind::kBaseline, &payload,
                      report)) {
    return;
  }
  constexpr std::size_t kHeader = 8 + 1 + 8 + 8 + 8;
  if (payload.size() < kHeader) {
    report->issues.push_back({path, "baseline header truncated"});
    return;
  }
  std::uint64_t size = 0;
  for (int b = 0; b < 8; ++b) {
    size |= static_cast<std::uint64_t>(payload[kHeader - 8 + b]) << (8 * b);
  }
  if (size != payload.size() - kHeader) {
    report->issues.push_back(
        {path, "baseline size mismatch: header records " +
                   std::to_string(size) + " bytes, file carries " +
                   std::to_string(payload.size() - kHeader)});
  }
}

}  // namespace

ScrubReport scrub_checkpoint_dir(const std::string& dir) {
  ScrubReport report;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return report;
  std::map<std::uint64_t, bool> epoch_dirs;  // epoch -> (unused)
  std::vector<std::string> logs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("epoch_", 0) == 0) {
      try {
        epoch_dirs[std::stoull(name.substr(6))] = true;
      } catch (...) {
        report.issues.push_back(
            {entry.path().string(), "unparseable epoch directory name"});
      }
    } else if (name.rfind("source_", 0) == 0 &&
               name.size() > 4 && name.compare(name.size() - 4, 4, ".log") == 0) {
      logs.push_back(entry.path().string());
    }
  }
  for (const auto& [epoch, unused] : epoch_dirs) {
    (void)unused;
    scrub_epoch(dir, epoch, epoch_dirs, &report);
  }
  std::sort(logs.begin(), logs.end());
  for (const std::string& path : logs) scrub_source_log(path, &report);
  const std::string bdir = dir + "/baseline";
  if (fs::is_directory(bdir, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(bdir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("op_", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".ckpt") == 0) {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    for (const std::string& path : files) scrub_baseline(path, &report);
  }
  return report;
}

}  // namespace ms::ft
