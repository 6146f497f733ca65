#include "ft/epoch_store.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <system_error>
#include <tuple>

#include "common/log.h"
#include "common/serialize.h"

namespace ms::ft {

namespace fs = std::filesystem;

namespace {

constexpr char kEpochPrefix[] = "epoch_";
constexpr char kSourcePrefix[] = "source_";

/// Parse the decimal number at `*p` (before `end`), advancing `*p` past it.
template <typename T>
bool parse_number(const char*& p, const char* end, T* out) {
  const auto [next, err] = std::from_chars(p, end, *out);
  if (err != std::errc() || next == p) return false;
  p = next;
  return true;
}

/// Paths of the files in `dir` named <prefix>...<ext>, sorted.
std::vector<std::string> list_files(const std::string& dir,
                                    const std::string& prefix,
                                    const std::string& ext) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0 &&
        entry.path().extension() == ext) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

// --- layout ------------------------------------------------------------------

std::string epoch_dir_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/" + kEpochPrefix + std::to_string(epoch);
}

std::string manifest_path(const std::string& dir, std::uint64_t epoch) {
  return epoch_dir_path(dir, epoch) + "/MANIFEST";
}

std::string blob_path(const std::string& dir, std::uint64_t epoch, int op,
                      bool delta) {
  return epoch_dir_path(dir, epoch) + "/op_" + std::to_string(op) +
         (delta ? ".delta" : ".ckpt");
}

std::string source_log_path(const std::string& dir, int op) {
  return dir + "/" + kSourcePrefix + std::to_string(op) + ".log";
}

std::string source_segment_path(const std::string& dir, int op,
                                std::uint64_t first, std::uint64_t last) {
  return dir + "/" + kSourcePrefix + std::to_string(op) + "." +
         std::to_string(first) + "-" + std::to_string(last) + ".log";
}

std::vector<std::uint64_t> list_epoch_dirs(
    const std::string& dir, std::vector<std::string>* unparseable) {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kEpochPrefix, 0) != 0) continue;
    const char* first = name.data() + sizeof(kEpochPrefix) - 1;
    const char* last = name.data() + name.size();
    std::uint64_t e = 0;
    const auto [end, err] = std::from_chars(first, last, e);
    if (err == std::errc() && end == last) {
      out.push_back(e);
    } else if (unparseable) {
      unparseable->push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SourceLogFile> list_source_logs(
    const std::string& dir, std::vector<std::string>* unparseable) {
  std::vector<SourceLogFile> out;
  for (const std::string& path : list_files(dir, kSourcePrefix, ".log")) {
    // <op>.log, or <op>.<first>-<last>.log
    const std::string name = fs::path(path).stem().string().substr(
        sizeof(kSourcePrefix) - 1);
    SourceLogFile f;
    f.path = path;
    const char* p = name.data();
    const char* end = name.data() + name.size();
    bool ok = parse_number(p, end, &f.op) && f.op >= 0;
    if (ok && p != end) {
      f.sealed = true;
      ok = *p++ == '.' && parse_number(p, end, &f.first) && p != end &&
           *p++ == '-' && parse_number(p, end, &f.last) && p == end &&
           f.first <= f.last;
    }
    if (ok) {
      out.push_back(std::move(f));
    } else if (unparseable) {
      unparseable->push_back(path);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SourceLogFile& a, const SourceLogFile& b) {
              return std::tuple(a.op, !a.sealed, a.first) <
                     std::tuple(b.op, !b.sealed, b.first);
            });
  return out;
}

// --- MANIFEST ----------------------------------------------------------------

std::vector<std::uint8_t> encode_manifest(const EpochManifest& m) {
  BinaryWriter w;
  w.write<std::uint32_t>(kManifestMagic);
  w.write<std::uint32_t>(kManifestVersion);
  w.write<std::uint64_t>(m.epoch);
  w.write<std::uint64_t>(m.prev_epoch);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(m.ops.size()));
  for (const auto& op : m.ops) {
    w.write<std::uint64_t>(op.size);
    w.write<std::uint8_t>(op.is_source ? 1 : 0);
    w.write<std::uint8_t>(op.delta ? 1 : 0);
    w.write<std::uint64_t>(op.boundary);
    w.write<std::uint64_t>(op.next_seq);
  }
  return w.take();
}

Result<EpochManifest> decode_manifest(const std::vector<std::uint8_t>& payload,
                                      const std::string& path) {
  // Validate sizes before handing the buffer to BinaryReader (which
  // fail-stops on truncation — wrong response to corrupt bytes).
  constexpr std::size_t kHeader = 4 + 4 + 8 + 8 + 4;
  const auto corrupt = [&path](const char* what) {
    return Status::data_loss(std::string("manifest corrupt (") + what +
                             "): " + path);
  };
  if (payload.size() < kHeader) return corrupt("truncated header");
  BinaryReader r(payload);
  if (r.read<std::uint32_t>() != kManifestMagic) return corrupt("magic");
  if (r.read<std::uint32_t>() != kManifestVersion) return corrupt("version");
  EpochManifest m;
  m.epoch = r.read<std::uint64_t>();
  m.prev_epoch = r.read<std::uint64_t>();
  const auto num_ops = r.read<std::uint32_t>();
  if (num_ops > 1u << 20) return corrupt("op count");
  constexpr std::size_t kPerOp = 8 + 1 + 1 + 8 + 8;
  if (payload.size() != kHeader + num_ops * kPerOp) return corrupt("length");
  m.ops.resize(num_ops);
  for (auto& op : m.ops) {
    op.size = r.read<std::uint64_t>();
    op.is_source = r.read<std::uint8_t>() != 0;
    op.delta = r.read<std::uint8_t>() != 0;
    op.boundary = r.read<std::uint64_t>();
    op.next_seq = r.read<std::uint64_t>();
  }
  return m;
}

Result<EpochManifest> read_manifest(const std::string& dir,
                                    std::uint64_t epoch,
                                    const storage::DurableOptions& opts) {
  const std::string path = manifest_path(dir, epoch);
  std::vector<std::uint8_t> payload;
  const Status st = storage::read_artifact(
      path, storage::ArtifactKind::kManifest, opts, &payload);
  if (!st.is_ok()) return st;
  auto m = decode_manifest(payload, path);
  if (m.is_ok() && m.value().epoch != epoch) {
    return Status::data_loss("manifest names epoch " +
                             std::to_string(m.value().epoch) +
                             ", not its directory's epoch " +
                             std::to_string(epoch) + ": " + path);
  }
  return m;
}

Status read_blob(const std::string& dir, std::uint64_t epoch, int op,
                 const EpochManifest::Op& record,
                 const storage::DurableOptions& opts,
                 std::vector<std::uint8_t>* bytes) {
  const std::string path = blob_path(dir, epoch, op, record.delta);
  const Status st = storage::read_artifact(
      path,
      record.delta ? storage::ArtifactKind::kDelta
                   : storage::ArtifactKind::kCheckpoint,
      opts, bytes);
  const std::string want = std::to_string(record.size);
  if (st.code() == StatusCode::kNotFound) {
    return Status::data_loss("blob missing (manifest records " + want +
                             " bytes): " + path);
  }
  if (st.is_ok() && bytes->size() != record.size) {
    return Status::data_loss("size mismatch: manifest records " + want +
                             " bytes, blob carries " +
                             std::to_string(bytes->size()) + ": " + path);
  }
  return st;
}

// --- the committed set -------------------------------------------------------

EpochStore::EpochStore(std::string dir, storage::DurableOptions opts,
                       int retain_fallback_epochs)
    : dir_(std::move(dir)),
      opts_(opts),
      retain_fallback_epochs_(std::max(0, retain_fallback_epochs)) {
  fs::create_directories(dir_);
  // Make the directory's own entries durable before anything is committed
  // under it: later writes fsync only their immediate parent.
  if (opts_.sync != storage::SyncMode::kNone) storage::fsync_dir(dir_);
}

std::vector<std::uint64_t> EpochStore::scan() {
  committed_.clear();
  // Whatever is on disk, the operators' in-memory dirty baselines are not
  // the chain tip (fresh construction or a recovery in progress).
  chain_broken_ = true;
  std::vector<std::uint64_t> corrupt;
  const std::vector<std::uint64_t> epochs = list_epoch_dirs(dir_);
  // Numbering continues past removed directories, so a re-created epoch
  // never collides with a file a reader might still hold open.
  epoch_base_ = epochs.empty() ? 0 : epochs.back();
  for (const std::uint64_t e : epochs) {
    auto m = read_manifest(dir_, e, opts_);
    const StatusCode code = m.status().code();
    if (code == StatusCode::kNotFound) {
      remove(e);  // crash mid-checkpoint: never existed
    } else if (code == StatusCode::kDataLoss) {
      // The commit marker fails verification: the epoch never safely existed,
      // and recovery's ladder must land on a verifiable predecessor.
      MS_LOG_WARN("ft", "rt scan: corrupt manifest for epoch %llu (%s); "
                  "classifying as never committed",
                  static_cast<unsigned long long>(e),
                  m.status().message().c_str());
      corrupt.push_back(e);
      remove(e);
    } else if (m.is_ok()) {
      committed_.emplace(e, std::move(m).value());
    } else {
      // Transient (EIO, fd exhaustion): possibly intact bytes we cannot see
      // right now. Keep the epoch, block GC, and let recovery fail retryably.
      committed_.emplace(e, std::nullopt);
    }
  }
  gc();
  return corrupt;
}

void EpochStore::create_epoch(std::uint64_t epoch) const {
  std::error_code ec;
  fs::create_directories(epoch_dir_path(dir_, epoch), ec);
  // The MANIFEST commit only fsyncs epoch_<E>; without this a power loss
  // after the commit could drop the whole directory.
  if (!ec && opts_.sync != storage::SyncMode::kNone) storage::fsync_dir(dir_);
}

Status EpochStore::write_blob(std::uint64_t epoch, int op, bool delta,
                              const void* data, std::size_t n) const {
  return storage::write_artifact(
      blob_path(dir_, epoch, op, delta),
      delta ? storage::ArtifactKind::kDelta
            : storage::ArtifactKind::kCheckpoint,
      data, n, opts_);
}

Status EpochStore::commit(EpochManifest m) {
  // An epoch where every op serialized fully (delta-unaware ops, or a
  // requested full epoch) is self-contained and compacts the chain.
  m.prev_epoch = 0;
  for (const EpochManifest::Op& op : m.ops) {
    if (op.delta) m.prev_epoch = tip();
  }
  const std::vector<std::uint8_t> payload = encode_manifest(m);
  const Status st = storage::write_artifact_atomic(
      manifest_path(dir_, m.epoch), storage::ArtifactKind::kManifest,
      payload.data(), payload.size(), opts_);
  if (!st.is_ok()) return st;
  // The rename was the commit point. A full epoch's image is durable at the
  // cut the operators' dirty baselines were pinned to: the chain is intact.
  if (m.prev_epoch == 0) chain_broken_ = false;
  committed_[m.epoch] = std::move(m);
  gc();
  return Status::ok();
}

void EpochStore::abandon(std::uint64_t epoch, bool remove_files) {
  // Operators that serialized for this epoch advanced their dirty baselines
  // at the cut; a delta against them would not layer onto the committed tip.
  chain_broken_ = true;
  if (remove_files) remove(epoch);
}

void EpochStore::remove(std::uint64_t epoch) {
  committed_.erase(epoch);
  std::error_code ec;
  fs::remove_all(epoch_dir_path(dir_, epoch), ec);
}

void EpochStore::gc() {
  for (const auto& [e, m] : committed_) {
    if (!m) return;  // an unreadable manifest may be anyone's chain link
  }
  const Chain chain = live_chain();
  if (!chain.complete) return;
  // A delta off the live chain is unusable without its tip; the rungs keep
  // a corrupt tip from stranding recovery.
  std::vector<std::uint64_t> doomed;
  for (const auto& [e, m] : committed_) {
    if (m->prev_epoch != 0 && !chain.contains(e)) doomed.push_back(e);
  }
  const std::vector<std::uint64_t> rung = rungs();
  const auto keep = static_cast<std::size_t>(retain_fallback_epochs_);
  if (rung.size() > keep) {
    doomed.insert(doomed.end(), rung.begin(), rung.end() - keep);
  }
  for (const std::uint64_t e : doomed) remove(e);
}

std::uint64_t EpochStore::tip() const {
  return committed_.empty() ? 0 : committed_.rbegin()->first;
}

const EpochManifest* EpochStore::manifest(std::uint64_t epoch) const {
  const auto it = committed_.find(epoch);
  return it == committed_.end() || !it->second ? nullptr : &*it->second;
}

EpochStore::Chain EpochStore::live_chain() const {
  Chain chain;
  std::uint64_t e = tip();
  chain.complete = e == 0;
  while (e != 0) {
    const auto it = committed_.find(e);
    if (it == committed_.end()) break;  // a missing link
    chain.epochs.insert(chain.epochs.begin(), e);
    if (!it->second) break;  // cannot see further back
    const std::uint64_t prev = it->second->prev_epoch;
    chain.complete = prev == 0;
    if (prev >= e) break;  // links only point back; anything else is damage
    e = prev;
  }
  return chain;
}

std::vector<std::uint64_t> EpochStore::rungs() const {
  const Chain chain = live_chain();
  std::vector<std::uint64_t> out;
  for (const auto& [e, m] : committed_) {
    if (m && m->prev_epoch == 0 && !chain.contains(e)) out.push_back(e);
  }
  return out;
}

std::vector<std::uint64_t> EpochStore::ladder() const {
  std::vector<std::uint64_t> out;
  for (const auto& [e, m] : committed_) out.insert(out.begin(), e);
  return out;
}

std::uint64_t EpochStore::truncation_floor(int op) const {
  if (committed_.empty()) return 0;
  std::uint64_t floor = ~std::uint64_t{0};
  for (const auto& [e, m] : committed_) {
    if (!m || static_cast<std::size_t>(op) >= m->ops.size()) return 0;
    floor = std::min(floor, m->ops[static_cast<std::size_t>(op)].boundary);
  }
  return floor;
}

bool EpochStore::delta_allowed(int compact_every,
                               double compact_ratio) const {
  if (chain_broken_ || tip() == 0) return false;
  int deltas = 0;
  std::uint64_t delta_bytes = 0, base_bytes = 0;
  for (const std::uint64_t e : live_chain().epochs) {
    const EpochManifest* m = manifest(e);
    if (m == nullptr) return false;
    deltas += m->prev_epoch != 0 ? 1 : 0;
    for (const EpochManifest::Op& op : m->ops) {
      // Only delta blobs add read cost: a delta-unaware op's full blob
      // supersedes its previous record at recovery.
      if (m->prev_epoch == 0) {
        base_bytes += op.size;
      } else if (op.delta) {
        delta_bytes += op.size;
      }
    }
  }
  const bool ratio_exceeded =
      base_bytes > 0 && static_cast<double>(delta_bytes) >
                            compact_ratio * static_cast<double>(base_bytes);
  return deltas < std::max(1, compact_every) && !ratio_exceeded;
}

Status EpochStore::load(std::uint64_t epoch, int num_ops,
                        LoadedEpoch* out) const {
  const auto n = static_cast<std::size_t>(num_ops);
  *out = LoadedEpoch(n);
  // The candidate's chain closure, the tip first and back to a full base.
  std::vector<EpochManifest> links;
  for (std::uint64_t e = epoch; e != 0; e = links.back().prev_epoch) {
    auto m = read_manifest(dir_, e, opts_);
    if (m.status().code() == StatusCode::kUnavailable) return m.status();
    // Gone or garbage: a link this candidate depends on is unusable.
    if (!m.is_ok()) {
      return Status::data_loss("chain manifest for epoch " +
                               std::to_string(e) + " unusable: " +
                               m.status().message());
    }
    if (m.value().ops.size() != n || m.value().prev_epoch >= e) {
      return Status::data_loss("manifest of epoch " + std::to_string(e) +
                               " does not fit its chain");
    }
    links.push_back(std::move(m).value());
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int op = static_cast<int>(i);
    // This op's newest full record, then its deltas up to the tip.
    std::size_t base = 0;
    while (base < links.size() && links[base].ops[i].delta) ++base;
    if (base == links.size()) {
      return Status::data_loss("delta without a base for op " +
                               std::to_string(op));
    }
    for (std::size_t j = base + 1; j-- > 0;) {
      const EpochManifest& link = links[j];
      std::vector<std::uint8_t> bytes;
      const Status st =
          read_blob(dir_, link.epoch, op, link.ops[i], opts_, &bytes);
      if (st.code() == StatusCode::kUnavailable) return st;
      if (!st.is_ok()) {
        out->corrupt_op = op;
        out->corrupt_epoch = link.epoch;
        return Status::data_loss(st.message());
      }
      out->bytes_read += bytes.size();
      if (j == base) {
        out->state[i] = std::move(bytes);
      } else {
        out->deltas[i].push_back(std::move(bytes));
      }
    }
    // Replay cursors always come from the tip — the chain's youngest cut.
    out->boundaries[i] = links.front().ops[i].boundary;
    out->next_seqs[i] = links.front().ops[i].next_seq;
  }
  return Status::ok();
}

}  // namespace ms::ft
