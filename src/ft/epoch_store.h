// The rt runtime's checkpoint directory: its layout, the payload of every
// file in it, and the set of committed epochs. No other code names a file
// under the directory or decides whether an epoch is committed, usable or
// garbage: RtRuntime drives this module, and the offline scrub (ft/verify.h,
// msverify) reads through the same const functions, so recovery and msverify
// cannot disagree about what is valid.
//
// Layout under `dir` (every file but the logs inside a storage::durable_file
// frame):
//   epoch_<E>/op_<i>.ckpt   op i's full snapshot in epoch E
//   epoch_<E>/op_<i>.delta  op i's mutations since its previous cut; a delta
//                           epoch chains on its manifest's prev_epoch
//   epoch_<E>/MANIFEST      the commit marker (MANIFEST.tmp renamed into
//                           place): per-op sizes, kinds, replay cursors and
//                           the chain predecessor. No MANIFEST, no epoch.
//   source_<i>.log          a source's preservation log, its head segment
//   source_<i>.<F>-<L>.log  one of its sealed segments, holding records F..L;
//                           the format and lifecycle of both belong to
//                           SourceLogSet (ft/source_log.h)
//
// EpochStore's only state is one map from committed epoch to its decoded
// manifest (or "unreadable": the manifest exists but a transient error hid
// it), plus the epoch numbering base and the chain-broken flag. The live
// chain, the fallback rungs, the recovery ladder, the log truncation floors
// and the compaction inputs are each derived from the map by one function.
// One GC rule serves commit and scan: delta epochs off the live chain are
// deleted, full epochs off it are rungs of which the newest
// retain_fallback_epochs are kept, and nothing is deleted while a manifest
// is unreadable or the live chain does not reach its full base.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/durable_file.h"

namespace ms::ft {

// --- layout ------------------------------------------------------------------

std::string epoch_dir_path(const std::string& dir, std::uint64_t epoch);
std::string manifest_path(const std::string& dir, std::uint64_t epoch);
std::string blob_path(const std::string& dir, std::uint64_t epoch, int op,
                      bool delta);
/// Source `op`'s head segment: the file its appends go to.
std::string source_log_path(const std::string& dir, int op);
/// Source `op`'s sealed segment holding records `first`..`last`.
std::string source_segment_path(const std::string& dir, int op,
                                std::uint64_t first, std::uint64_t last);

/// Every epoch_<E> directory under `dir`, ascending; names with the prefix
/// but no number go to `unparseable`.
std::vector<std::uint64_t> list_epoch_dirs(
    const std::string& dir, std::vector<std::string>* unparseable = nullptr);

/// One source-log file, as its name describes it.
struct SourceLogFile {
  std::string path;
  int op = 0;
  bool sealed = false;     // a sealed segment, else the head
  std::uint64_t first = 0;  // a sealed segment's inclusive index range
  std::uint64_t last = 0;
};
/// Every source-log file under `dir`: by op, each op's sealed segments by
/// first index, then its head. Names with the source_ prefix and the .log
/// extension that are neither form (or name a range with first > last) go
/// to `unparseable`.
std::vector<SourceLogFile> list_source_logs(
    const std::string& dir, std::vector<std::string>* unparseable = nullptr);

// --- MANIFEST ----------------------------------------------------------------

struct EpochManifest {
  std::uint64_t epoch = 0;
  /// The committed epoch this one chains on; 0 = every op record is full.
  std::uint64_t prev_epoch = 0;
  struct Op {
    std::uint64_t size = 0;
    bool is_source = false;
    bool delta = false;  // op_<i>.delta rather than op_<i>.ckpt
    std::uint64_t boundary = 0;
    std::uint64_t next_seq = 0;
  };
  std::vector<Op> ops;
};

constexpr std::uint32_t kManifestMagic = 0x4D534D46;  // "MSMF"
// Only the current version is accepted: checkpoint directories do not
// outlive the binary that wrote them.
constexpr std::uint32_t kManifestVersion = 2;

std::vector<std::uint8_t> encode_manifest(const EpochManifest& m);

/// Decode a manifest payload; any malformation is kDataLoss.
Result<EpochManifest> decode_manifest(const std::vector<std::uint8_t>& payload,
                                      const std::string& path);

/// Read and verify epoch_<E>/MANIFEST, including that it names epoch E.
/// kNotFound = never committed; kDataLoss = fails verification;
/// kUnavailable = transient read error.
Result<EpochManifest> read_manifest(const std::string& dir,
                                    std::uint64_t epoch,
                                    const storage::DurableOptions& opts);

/// Read and verify op `op`'s blob of `epoch`: its frame, and the size its
/// manifest record gives. Missing is kDataLoss whatever that size (every op
/// writes a blob, if empty); kUnavailable = transient read error.
Status read_blob(const std::string& dir, std::uint64_t epoch, int op,
                 const EpochManifest::Op& record,
                 const storage::DurableOptions& opts,
                 std::vector<std::uint8_t>* bytes);

// --- the committed set -------------------------------------------------------

/// One committed epoch with its chain resolved: per-op state bytes, the
/// deltas to layer on them, and the tip's replay cursors.
struct LoadedEpoch {
  explicit LoadedEpoch(std::size_t num_ops = 0)
      : state(num_ops), deltas(num_ops), boundaries(num_ops),
        next_seqs(num_ops) {}
  std::vector<std::vector<std::uint8_t>> state;
  std::vector<std::vector<std::vector<std::uint8_t>>> deltas;
  std::vector<std::uint64_t> boundaries;
  std::vector<std::uint64_t> next_seqs;
  std::uint64_t bytes_read = 0;
  /// The blob that failed verification, when one did (op -1 = none).
  int corrupt_op = -1;
  std::uint64_t corrupt_epoch = 0;
};

/// The committed epochs of one checkpoint directory. Not thread-safe: the
/// owner serializes every call but the const ones, which touch no state.
class EpochStore {
 public:
  /// Creates `dir` with a durable dirent.
  EpochStore(std::string dir, storage::DurableOptions opts,
             int retain_fallback_epochs);

  /// Rebuild the committed set from disk, reading each manifest once and
  /// deleting directories without one or with one that fails verification
  /// (returned). Ends with gc(); the chain counts as broken.
  std::vector<std::uint64_t> scan();

  /// Highest epoch directory the last scan saw. A runtime's coordinator
  /// numbers its epochs from one past the base of its first scan; it never
  /// reuses an id, so a later (in-place recovery) scan needs no re-seed.
  std::uint64_t epoch_base() const { return epoch_base_; }
  /// True while the operators' in-memory dirty baselines are not the
  /// committed tip (after a scan or an abandoned epoch): the next epoch must
  /// be full. Only a committed full epoch clears it.
  bool chain_broken() const { return chain_broken_; }

  /// Create epoch_<E>/ with a durable dirent, before its blobs are written.
  void create_epoch(std::uint64_t epoch) const;
  /// Write one op's blob in place: the MANIFEST rename gates its visibility.
  Status write_blob(std::uint64_t epoch, int op, bool delta, const void* data,
                    std::size_t n) const;
  /// Write `m`'s MANIFEST, the commit point, chained on the tip iff an op
  /// record is a delta. On success the epoch joins the committed set, a full
  /// epoch repairs the chain, and gc() runs.
  Status commit(EpochManifest m);
  /// An epoch in flight will not commit: the chain breaks, and its files go
  /// when `remove_files` (a dead process deletes nothing).
  void abandon(std::uint64_t epoch, bool remove_files);
  /// Delete an epoch's directory and drop it from the committed set.
  void remove(std::uint64_t epoch);

  // --- derived from the committed set ---
  /// Newest committed epoch; 0 = none.
  std::uint64_t tip() const;
  /// A committed epoch's manifest; null when absent or unreadable.
  const EpochManifest* manifest(std::uint64_t epoch) const;
  struct Chain {
    std::vector<std::uint64_t> epochs;  // oldest (the full base) first
    bool complete = false;  // reached a full base through readable manifests
    bool contains(std::uint64_t e) const {
      return std::find(epochs.begin(), epochs.end(), e) != epochs.end();
    }
  };
  /// The tip and its prev_epoch ancestors.
  Chain live_chain() const;
  /// Committed full epochs off the live chain, ascending.
  std::vector<std::uint64_t> rungs() const;
  /// Every committed epoch, newest first: recovery's fallback order.
  std::vector<std::uint64_t> ladder() const;
  /// Lowest replay boundary of source `op` across the committed set (0 while
  /// a manifest is unreadable): a fallback to any epoch must find its records.
  std::uint64_t truncation_floor(int op) const;
  /// Whether the next epoch may be a delta on the tip: the chain is intact
  /// and compaction is not due — fewer than `compact_every` deltas on the
  /// live chain, whose delta-blob bytes stay within `compact_ratio` x its
  /// full base's bytes.
  bool delta_allowed(int compact_every, double compact_ratio) const;

  /// Read and verify every blob in `epoch`'s chain closure, re-reading its
  /// manifests (one damaged since the scan is caught). kDataLoss = something
  /// in the closure is corrupt or missing; kUnavailable = transient error.
  Status load(std::uint64_t epoch, int num_ops, LoadedEpoch* out) const;

 private:
  /// The one GC rule (file comment), run after every commit and scan.
  void gc();

  const std::string dir_;
  const storage::DurableOptions opts_;
  const int retain_fallback_epochs_;
  /// Committed epoch -> decoded manifest, or nullopt when unreadable.
  std::map<std::uint64_t, std::optional<EpochManifest>> committed_;
  std::uint64_t epoch_base_ = 0;
  bool chain_broken_ = true;
};

}  // namespace ms::ft
