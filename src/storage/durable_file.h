// Framed durable artifacts: every durable byte the runtime writes —
// checkpoints, deltas, manifests, source-log batches — is an MSDF frame: a
// fixed 24-byte header carrying magic, version, artifact kind, payload
// length and a CRC32C over the payload (plus a CRC over the header itself),
// so recovery can tell "these are the bytes that were written" from "the
// disk lied". One parser, scan_frames, reads every frame: a blob is exactly
// one frame spanning its file, a source log consecutive frames of one kind.
// Past the last whole frame, bytes in which no verifying header begins are a
// tear (a write cut short); a verifying header after a bad frame makes that
// frame damage. CRC32C (Castagnoli) uses the SSE4.2 crc32 instruction when
// the CPU has it and a table-based fallback otherwise.
//
// Durability is layered on top with an explicit fsync discipline: the commit
// point of every atomic write is the rename, and SyncMode decides how much
// is forced to media before it — kNone trusts the page cache (tests,
// benches), kCommit fdatasyncs the file and fsyncs the parent directory
// around the rename (a power loss cannot produce a committed-but-empty
// artifact), kAlways additionally fdatasyncs every log append. An appended
// file is cut back only by truncation (AppendFile::truncate).
//
// A FaultInjector hook threads disk faults (torn write, bit flip, short
// read, I/O error, crash around the rename) through every operation so
// chaos drills exercise exactly the paths a real commodity disk fails on.
// The hook interface lives here rather than in src/failure to keep the
// dependency arrow pointing one way: ms_failure links ms_ft links this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace ms::storage {

// --- CRC32C ----------------------------------------------------------------

/// CRC32C (Castagnoli) of `n` bytes, chainable via `seed` (pass the previous
/// return value to continue a running CRC).
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

/// True when the SSE4.2 hardware path is in use (introspection / benches).
bool crc32c_hw_available();

// --- artifact framing ------------------------------------------------------

enum class ArtifactKind : std::uint8_t {
  kCheckpoint = 1,  // epoch_<E>/op_<i>.ckpt
  kDelta = 2,       // epoch_<E>/op_<i>.delta
  kManifest = 3,    // epoch_<E>/MANIFEST
  kSourceLog = 4,   // source_<i>[.<F>-<L>].log (a frame per batch, AppendFile)
  // 5 is retired (a removed per-unit checkpoint file): never reuse it.
};

const char* artifact_kind_name(ArtifactKind kind);

/// "MSDF" little-endian; first 4 bytes of every framed artifact.
constexpr std::uint32_t kArtifactMagic = 0x4644534D;
constexpr std::uint16_t kArtifactVersion = 1;
/// magic(4) + version(2) + kind(1) + reserved(1) + payload_len(8) +
/// payload_crc(4) + header_crc(4).
constexpr std::size_t kArtifactHeaderSize = 24;

/// Prepend the frame header to `payload`.
std::vector<std::uint8_t> frame_artifact(ArtifactKind kind,
                                         const void* payload, std::size_t n);

/// Frame in place: fill the first kArtifactHeaderSize bytes of `frame` as
/// the header of the `n` payload bytes that follow them (an appender encodes
/// its payload behind a reserved header and writes the frame as one piece).
void write_frame_header(std::uint8_t* frame, ArtifactKind kind, std::size_t n);

/// One verified frame of a scanned range (valid while the range lives).
struct FrameView {
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
};

struct FrameScan {
  std::vector<FrameView> frames;
  /// End of the last whole frame.
  std::uint64_t valid_bytes = 0;
  /// The bytes past valid_bytes are a tear: no verifying header begins in
  /// them.
  bool torn = false;
  /// Why the bytes at valid_bytes are not a whole frame (when they exist).
  const char* why = nullptr;
};

/// The one frame parser: consecutive frames of `kind` from the start of the
/// `size` bytes at `data`, up to the first bytes that are not a whole frame
/// of `kind` that verifies. Past that bad frame, bytes in which no
/// verifying frame header begins are a tear (`torn`: a write cut short
/// leaves a prefix of its frame). A verifying header beginning anywhere
/// after the bad frame's start, or a range that does not open with the
/// magic, makes the bad frame damage: kDataLoss naming `path` and the
/// offset. The header search runs only on that failure path.
Result<FrameScan> scan_frames(const std::uint8_t* data, std::size_t size,
                              ArtifactKind kind, const std::string& path);

/// Verify that `file` (the full on-disk bytes of `path`, used only for error
/// messages) is exactly one frame of `expect` spanning it, and strip the
/// frame: on success `*payload` receives the payload bytes. Anything else
/// (missing magic, wrong kind, bad length, CRC mismatch, more or fewer
/// bytes than the frame) is kDataLoss — the definitive "these bytes are not
/// what was written".
Status unframe_artifact(const std::string& path,
                        std::vector<std::uint8_t> file, ArtifactKind expect,
                        std::vector<std::uint8_t>* payload);

// --- fault injection -------------------------------------------------------

enum class WriteFault : std::uint8_t {
  kNone,
  /// Write only the first `offset` bytes but report success — the silent
  /// torn write a lying disk produces.
  kTorn,
  /// Fail the write with a transient I/O error (kUnavailable).
  kError,
  /// Process dies after the temp file is written, before the rename: the
  /// commit point was never reached.
  kCrashBeforeRename,
  /// Process dies right after the rename, before the directory sync: the
  /// commit landed but the writer never observed it.
  kCrashAfterRename,
  /// Every byte lands, but the sync that would make it durable reports
  /// failure (EIO from fdatasync). Only writes that sync see it.
  kSyncError,
};

enum class ReadFault : std::uint8_t {
  kNone,
  kShortRead,  // drop everything from `offset` on
  kBitFlip,    // flip bit (offset % 8) of byte (offset / 8)
  kError,      // transient I/O error (kUnavailable)
};

struct WriteFaultSpec {
  WriteFault fault = WriteFault::kNone;
  std::uint64_t offset = 0;
};

struct ReadFaultSpec {
  ReadFault fault = ReadFault::kNone;
  std::uint64_t offset = 0;
};

/// Per-operation fault decisions, consulted by every durable read/write.
/// Implementations (src/failure/disk_fault.h) match on path / artifact kind
/// and arm one-shot or sticky faults; the default answers are "no fault".
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual WriteFaultSpec write_fault(const std::string& path,
                                     ArtifactKind kind) = 0;
  virtual ReadFaultSpec read_fault(const std::string& path,
                                   ArtifactKind kind) = 0;
  /// Called at the instant a kCrashBefore/AfterRename fault executes, so the
  /// harness can flip the runtime's crash flag at the faithful point.
  virtual void on_crash_point(const std::string& path) { (void)path; }
};

// --- durable I/O -----------------------------------------------------------

/// kCommit syncs at rename commit points only: a log append is a write()
/// with no fdatasync, and a log segment is synced when a commit seals it
/// (fdatasync, rename, directory fsync) or a torn head tail is truncated at
/// scan.
/// Its exactly-once therefore covers process crashes. After a power loss
/// only the head segment can lose records — those appended since the last
/// seal, all after the last commit — and recovery then replays less and
/// returns OK. kAlways is the mode that covers power loss.
enum class SyncMode : std::uint8_t {
  kNone,    // page cache only (fast; tests and benches)
  kCommit,  // fdatasync files + fsync parent dir around rename commit points
  kAlways,  // kCommit plus fdatasync on every log append
};

struct DurableOptions {
  SyncMode sync = SyncMode::kCommit;
  FaultInjector* faults = nullptr;
};

/// fsync the directory itself so a preceding rename/create in it is durable.
bool fsync_dir(const std::string& dir);

/// Frame `data` and write it straight to `path` (no rename). For blobs whose
/// visibility is already gated by a later commit marker (epoch op files: the
/// directory "does not exist" until its MANIFEST lands). fdatasyncs the file
/// under kCommit/kAlways.
Status write_artifact(const std::string& path, ArtifactKind kind,
                      const void* data, std::size_t n,
                      const DurableOptions& opts);

/// Frame `data`, write to `path + ".tmp"`, then rename into place — the
/// commit point. Under kCommit/kAlways the temp file is fdatasynced before
/// and the parent directory fsynced after the rename.
Status write_artifact_atomic(const std::string& path, ArtifactKind kind,
                             const void* data, std::size_t n,
                             const DurableOptions& opts);

/// Read the raw bytes of `path` with read-fault injection applied (for
/// files of many frames, i.e. source logs). kNotFound when the
/// file does not exist, kUnavailable on a read error.
Status read_raw(const std::string& path, ArtifactKind kind,
                const DurableOptions& opts, std::vector<std::uint8_t>* bytes);

/// read_raw + unframe_artifact: the verified payload of a framed artifact.
Status read_artifact(const std::string& path, ArtifactKind kind,
                     const DurableOptions& opts,
                     std::vector<std::uint8_t>* payload);

/// fd-based append handle for source logs: appends are plain write()s (no
/// stream buffering — the bytes are in the kernel when append() returns),
/// optionally fdatasynced per append under SyncMode::kAlways. Write faults
/// apply per append.
class AppendFile {
 public:
  AppendFile() = default;
  ~AppendFile() { close(); }
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  bool open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  void close();
  /// Append `n` bytes; false on failure (injected or real). Under
  /// SyncMode::kAlways in `opts` the append is fdatasynced before returning,
  /// and a failed sync fails the append. A failed append may leave part or
  /// all of its bytes in the file.
  bool append(const void* data, std::size_t n, const DurableOptions& opts);
  /// fdatasync what has been appended (`fault` as the write hook returned
  /// it: kSyncError fails the sync). It reads only the descriptor, so it
  /// may run while another thread appends; false when the handle is closed.
  bool sync(WriteFault fault = WriteFault::kNone);
  /// File size at open plus every successful append since.
  std::uint64_t size() const { return size_; }
  /// Cut the file back to `size` bytes, which becomes size():
  /// truncate(size()) drops whatever a failed append left behind, and a
  /// scan cuts a torn tail off. False when the handle is closed or the
  /// truncate fails.
  bool truncate(std::uint64_t size);

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
};

}  // namespace ms::storage
