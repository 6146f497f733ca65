// On-disk layout of the rt runtime's durable state, factored out of
// RtRuntime so the standalone verifier (ft/verify.h, tools/msverify) decodes
// exactly the bytes the runtime writes.
//
// Every file here travels inside a storage::durable_file frame (magic +
// CRC32C); this header describes the *payloads*:
//
//   MANIFEST payload     "MSMF" v2 — epoch, chain predecessor, per-op
//                        size/kind/replay-cursor records.
//   source_<i>.log       "MSLG" v1 file header, then per-record frames of
//                        [u32 len][u32 crc32c(payload)][payload]. A log of
//                        at least 8 bytes without that header is kDataLoss.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace ms::ft {

// --- MANIFEST --------------------------------------------------------------

struct EpochManifest {
  std::uint64_t epoch = 0;
  /// The committed epoch this one chains on (0 = chain base: every op
  /// record in this epoch is full). Recovery follows these pointers.
  std::uint64_t prev_epoch = 0;
  struct Op {
    std::uint64_t size = 0;
    bool is_source = false;
    /// True when op_<i>.delta (layer on the chain), false for op_<i>.ckpt.
    bool delta = false;
    std::uint64_t boundary = 0;
    std::uint64_t next_seq = 0;
  };
  std::vector<Op> ops;
};

constexpr std::uint32_t kManifestMagic = 0x4D534D46;  // "MSMF"
// v2 added the chain predecessor pointer and per-op full/delta kinds.
// Checkpoint directories do not outlive the binary that wrote them, so only
// the current version is accepted.
constexpr std::uint32_t kManifestVersion = 2;

std::vector<std::uint8_t> encode_manifest(const EpochManifest& m);

/// Decode a manifest payload. All malformations (bad magic/version, size
/// mismatch, absurd op count) classify as kDataLoss: the file existed — an
/// epoch claimed to be committed — but its bytes are not a manifest.
Result<EpochManifest> decode_manifest(const std::vector<std::uint8_t>& payload,
                                      const std::string& path);

// --- source logs -----------------------------------------------------------

constexpr std::uint32_t kLogFileMagic = 0x474C534D;  // "MSLG"
constexpr std::uint32_t kLogFileVersion = 1;
constexpr std::size_t kLogFileHeaderSize = 8;
// Fixed-width portion of a source-log record payload (everything but the
// tuple payload bytes).
constexpr std::size_t kLogFrameFixed =
    8 /*index*/ + 4 /*out_port*/ + 8 /*id*/ + 4 /*source_hau*/ +
    8 /*source_seq*/ + 8 /*edge_seq*/ + 8 /*event_time*/ + 8 /*wire_size*/ +
    1 /*has_payload*/;

/// The MSLG header every log starts with.
std::array<std::uint8_t, kLogFileHeaderSize> log_file_header();

/// One whole CRC-verified record payload inside the scanned buffer — a view,
/// valid while the buffer lives. `index` is the record index, the payload's
/// first 8 bytes, read without decoding the rest of the record.
struct LogFrameView {
  std::uint64_t index = 0;
  const std::uint8_t* data = nullptr;
  std::uint32_t len = 0;
};

struct LogScan {
  /// Scan ended on a corrupt or incomplete frame (torn tail): `valid_bytes`
  /// is where the damage starts; everything after is unusable.
  bool torn = false;
  std::uint64_t valid_bytes = 0;
  std::vector<LogFrameView> frames;
};

/// Verify a source log's MSLG header, then walk its bytes frame by frame,
/// verifying each frame's CRC (`path` is used only for error messages). An
/// empty file is a fresh log; a file shorter than the header is a header torn
/// at creation (torn, valid_bytes 0). A corrupt frame, or one too short to
/// hold a record's fixed fields, is a torn tail that stops the scan. A file
/// holding a whole header that does not verify is kDataLoss.
Result<LogScan> scan_log_bytes(const std::uint8_t* data, std::size_t size,
                               const std::string& path);

/// The file image that keeps `scan`'s frames with index >= `bound`: the MSLG
/// header, then each kept frame as [len][crc32c][payload], copied with the
/// CRC the scan verified.
std::vector<std::uint8_t> log_suffix_image(const LogScan& scan,
                                           std::uint64_t bound);

}  // namespace ms::ft
