#include "ft/durable_layout.h"

#include <cstring>

#include "common/serialize.h"
#include "storage/durable_file.h"

namespace ms::ft {

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
  std::uint32_t magic = 0, version = 0, num_ops = 0;
  std::memcpy(&magic, payload.data(), 4);
  std::memcpy(&version, payload.data() + 4, 4);
  std::memcpy(&num_ops, payload.data() + 24, 4);
  if (magic != kManifestMagic) return corrupt("magic");
  if (version != kManifestVersion) return corrupt("version");
  if (num_ops > 1u << 20) return corrupt("op count");
  constexpr std::size_t kPerOp = 8 + 1 + 1 + 8 + 8;
  if (payload.size() != kHeader + num_ops * kPerOp) return corrupt("length");

  BinaryReader r(payload);
  EpochManifest m;
  r.read<std::uint32_t>();  // magic
  r.read<std::uint32_t>();  // version
  m.epoch = r.read<std::uint64_t>();
  m.prev_epoch = r.read<std::uint64_t>();
  r.read<std::uint32_t>();  // num_ops
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

std::array<std::uint8_t, kLogFileHeaderSize> log_file_header() {
  std::array<std::uint8_t, kLogFileHeaderSize> hdr{};
  std::memcpy(hdr.data(), &kLogFileMagic, 4);
  std::memcpy(hdr.data() + 4, &kLogFileVersion, 4);
  return hdr;
}

Result<LogScan> scan_log_bytes(const std::uint8_t* data, std::size_t size,
                               const std::string& path) {
  LogScan scan;
  if (size == 0) return scan;  // a fresh log
  if (size < kLogFileHeaderSize) {
    scan.torn = true;  // a crash while the header was being written
    return scan;
  }
  const auto hdr = log_file_header();
  if (std::memcmp(data, hdr.data(), hdr.size()) != 0) {
    return Status::data_loss("source log header corrupt: " + path);
  }
  std::size_t pos = kLogFileHeaderSize;
  scan.valid_bytes = pos;
  while (pos + 8 <= size) {  // [len][crc]
    std::uint32_t len = 0, crc = 0;
    std::memcpy(&len, data + pos, 4);
    std::memcpy(&crc, data + pos + 4, 4);
    const std::uint8_t* payload = data + pos + 8;
    // No writer produces a record shorter than its fixed fields, so such a
    // frame is corrupt even when its CRC matches.
    if (len < kLogFrameFixed || pos + 8 + len > size ||
        storage::crc32c(payload, len) != crc) {
      scan.torn = true;
      break;
    }
    LogFrameView frame;
    std::memcpy(&frame.index, payload, 8);
    frame.data = payload;
    frame.len = len;
    scan.frames.push_back(frame);
    pos += 8 + len;
    scan.valid_bytes = pos;
  }
  // Loose trailing bytes too short to hold a frame header are a torn tail
  // as well.
  if (!scan.torn && pos != size) scan.torn = true;
  return scan;
}

std::vector<std::uint8_t> log_suffix_image(const LogScan& scan,
                                           std::uint64_t bound) {
  std::size_t size = kLogFileHeaderSize;
  for (const LogFrameView& f : scan.frames) {
    if (f.index >= bound) size += 8 + f.len;
  }
  std::vector<std::uint8_t> out;
  out.reserve(size);
  const auto hdr = log_file_header();
  out.insert(out.end(), hdr.begin(), hdr.end());
  for (const LogFrameView& f : scan.frames) {
    // [len][crc] sit right before the payload, the CRC already verified.
    if (f.index >= bound) out.insert(out.end(), f.data - 8, f.data + f.len);
  }
  return out;
}

}  // namespace ms::ft
