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

LogScan scan_log_bytes(const std::uint8_t* data, std::size_t size) {
  LogScan scan;
  std::size_t pos = 0;
  if (size >= kLogFileHeaderSize) {
    std::uint32_t magic = 0, version = 0;
    std::memcpy(&magic, data, 4);
    std::memcpy(&version, data + 4, 4);
    if (magic == kLogFileMagic && version == kLogFileVersion) {
      scan.new_format = true;
      pos = kLogFileHeaderSize;
    }
  }
  scan.valid_bytes = pos;
  const std::size_t frame_fixed = scan.new_format ? 8 : 4;  // len [+ crc]
  while (pos + frame_fixed <= size) {
    std::uint32_t len = 0;
    std::memcpy(&len, data + pos, 4);
    if (len < kLogFrameFixed) {
      // No writer produces a record shorter than its fixed fields; for
      // legacy frames, which carry no CRC, this is the only corruption a
      // scan can prove.
      scan.torn = true;
      break;
    }
    if (pos + frame_fixed + len > size) {  // incomplete tail
      scan.torn = true;
      break;
    }
    const std::uint8_t* payload = data + pos + frame_fixed;
    if (scan.new_format) {
      std::uint32_t crc = 0;
      std::memcpy(&crc, data + pos + 4, 4);
      if (storage::crc32c(payload, len) != crc) {
        scan.torn = true;
        break;
      }
    }
    LogFrameView frame;
    std::memcpy(&frame.index, payload, 8);
    frame.data = payload;
    frame.len = len;
    scan.frames.push_back(frame);
    pos += frame_fixed + len;
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
    if (f.index < bound) continue;
    if (scan.new_format) {
      // [len][crc] sit right before the payload, the CRC already verified.
      out.insert(out.end(), f.data - 8, f.data + f.len);
      continue;
    }
    std::uint8_t head[8];
    const std::uint32_t crc = storage::crc32c(f.data, f.len);
    std::memcpy(head, &f.len, 4);
    std::memcpy(head + 4, &crc, 4);
    out.insert(out.end(), head, head + 8);
    out.insert(out.end(), f.data, f.data + f.len);
  }
  return out;
}

}  // namespace ms::ft
