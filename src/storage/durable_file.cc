#include "storage/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace ms::storage {

namespace fs = std::filesystem;

// --- CRC32C ----------------------------------------------------------------

namespace {

// Table-based fallback (Castagnoli polynomial 0x1EDC6F41, reflected
// 0x82F63B78) — one table, byte at a time; correctness over throughput, the
// hardware path carries the hot loops.
struct Crc32cTable {
  std::array<std::uint32_t, 256> t{};
  Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
      }
      t[i] = c;
    }
  }
};

std::uint32_t crc32c_sw(const void* data, std::size_t n, std::uint32_t crc) {
  static const Crc32cTable table;
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table.t[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__) || defined(__i386__)
#define MS_CRC32C_HW 1

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(const void* data,
                                                          std::size_t n,
                                                          std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
#if defined(__x86_64__)
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    crc = static_cast<std::uint32_t>(
        __builtin_ia32_crc32di(crc, v));
    p += 8;
    n -= 8;
  }
#endif
  while (n >= 4) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    crc = __builtin_ia32_crc32si(crc, v);
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p);
    ++p;
    --n;
  }
  return ~crc;
}

bool detect_sse42() { return __builtin_cpu_supports("sse4.2"); }
#endif  // x86

}  // namespace

bool crc32c_hw_available() {
#ifdef MS_CRC32C_HW
  static const bool available = detect_sse42();
  return available;
#else
  return false;
#endif
}

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
#ifdef MS_CRC32C_HW
  if (crc32c_hw_available()) return crc32c_hw(data, n, seed);
#endif
  return crc32c_sw(data, n, seed);
}

// --- artifact framing ------------------------------------------------------

const char* artifact_kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kCheckpoint: return "checkpoint";
    case ArtifactKind::kDelta: return "delta";
    case ArtifactKind::kManifest: return "manifest";
    case ArtifactKind::kSourceLog: return "source-log";
  }
  return "unknown";
}

namespace {

void put_u16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint16_t get_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

Status data_loss(const std::string& path, const std::string& what) {
  return {StatusCode::kDataLoss, "artifact corrupt (" + what + "): " + path};
}

/// Why the `avail` bytes at `h` do not open with a whole frame of `kind`
/// that verifies; nullptr when they do, its payload length in `*len`.
const char* check_frame(const std::uint8_t* h, std::size_t avail,
                        ArtifactKind kind, std::uint64_t* len) {
  if (avail < kArtifactHeaderSize) return "truncated header";
  if (get_u32(h) != kArtifactMagic) return "magic";
  if (crc32c(h, 20) != get_u32(h + 20)) return "header crc";
  if (get_u16(h + 4) != kArtifactVersion) return "frame version";
  if (h[6] != static_cast<std::uint8_t>(kind)) return "artifact kind";
  *len = get_u64(h + 8);
  if (*len > avail - kArtifactHeaderSize) return "payload length";
  if (crc32c(h + kArtifactHeaderSize, static_cast<std::size_t>(*len)) !=
      get_u32(h + 16)) {
    return "payload crc";
  }
  return nullptr;
}

}  // namespace

void write_frame_header(std::uint8_t* h, ArtifactKind kind, std::size_t n) {
  put_u32(h, kArtifactMagic);
  put_u16(h + 4, kArtifactVersion);
  h[6] = static_cast<std::uint8_t>(kind);
  h[7] = 0;  // reserved
  put_u64(h + 8, static_cast<std::uint64_t>(n));
  put_u32(h + 16, crc32c(h + kArtifactHeaderSize, n));
  put_u32(h + 20, crc32c(h, 20));
}

std::vector<std::uint8_t> frame_artifact(ArtifactKind kind,
                                         const void* payload, std::size_t n) {
  std::vector<std::uint8_t> out(kArtifactHeaderSize + n);
  if (n > 0) std::memcpy(out.data() + kArtifactHeaderSize, payload, n);
  write_frame_header(out.data(), kind, n);
  return out;
}

Result<FrameScan> scan_frames(const std::uint8_t* data, std::size_t size,
                              ArtifactKind kind, const std::string& path) {
  FrameScan scan;
  std::size_t pos = 0;
  std::uint64_t len = 0;
  while (pos < size &&
         (scan.why = check_frame(data + pos, size - pos, kind, &len)) ==
             nullptr) {
    scan.frames.push_back(
        {data + pos + kArtifactHeaderSize, static_cast<std::size_t>(len)});
    pos += kArtifactHeaderSize + static_cast<std::size_t>(len);
  }
  scan.valid_bytes = pos;
  if (pos == size) return scan;
  // A write cut short leaves a prefix of one frame: the range still opens
  // with (a prefix of) the magic, and no header verifies past its start.
  bool damaged = std::memcmp(data, &kArtifactMagic,
                             std::min<std::size_t>(size, 4)) != 0;
  for (std::size_t at = pos + 1;
       !damaged && at + kArtifactHeaderSize <= size; ++at) {
    damaged = get_u32(data + at) == kArtifactMagic &&
              crc32c(data + at, 20) == get_u32(data + at + 20);
  }
  if (damaged) {
    return data_loss(path, "damaged frame at byte " + std::to_string(pos) +
                               ": " + scan.why);
  }
  scan.torn = true;
  return scan;
}

Status unframe_artifact(const std::string& path,
                        std::vector<std::uint8_t> file, ArtifactKind expect,
                        std::vector<std::uint8_t>* payload) {
  auto scan = scan_frames(file.data(), file.size(), expect, path);
  if (!scan.is_ok()) return scan.status();
  const FrameScan& s = scan.value();
  if (s.frames.size() != 1 || s.torn) {
    return data_loss(path, s.frames.empty() && s.why != nullptr
                               ? s.why
                               : "not exactly one frame");
  }
  payload->assign(s.frames[0].payload, s.frames[0].payload + s.frames[0].size);
  return Status::ok();
}

// --- durable I/O -----------------------------------------------------------

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

namespace {

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// fdatasync `fd`, or report the failure `fault` injects.
bool sync_fd(int fd, WriteFault fault) {
  return ::fdatasync(fd) == 0 && fault != WriteFault::kSyncError;
}

/// Write the first min(`limit`, `n`) of `n` bytes at `data` to `path`,
/// O_TRUNC. `do_sync` fdatasyncs before close (`fault` as in sync_fd).
bool write_file(const std::string& path, const std::uint8_t* data,
                std::size_t n, std::size_t limit, bool do_sync,
                WriteFault fault = WriteFault::kNone) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = write_all(fd, data, std::min(limit, n));
  if (ok && do_sync) ok = sync_fd(fd, fault);
  ::close(fd);
  return ok;
}

std::string parent_dir(const std::string& path) {
  const auto p = fs::path(path).parent_path();
  return p.empty() ? std::string(".") : p.string();
}

}  // namespace

Status write_artifact(const std::string& path, ArtifactKind kind,
                      const void* data, std::size_t n,
                      const DurableOptions& opts) {
  const std::vector<std::uint8_t> framed = frame_artifact(kind, data, n);
  const bool do_sync = opts.sync != SyncMode::kNone;
  WriteFaultSpec fault;
  if (opts.faults) fault = opts.faults->write_fault(path, kind);
  switch (fault.fault) {
    case WriteFault::kError:
      return Status::unavailable("injected write error: " + path);
    case WriteFault::kTorn:
      // The disk lied: part of the frame landed, success was reported.
      write_file(path, framed.data(), framed.size(),
                 static_cast<std::size_t>(fault.offset), do_sync);
      return Status::ok();
    case WriteFault::kCrashBeforeRename:
    case WriteFault::kCrashAfterRename:
      // No rename in the direct path; a crash here means the bytes may or
      // may not have landed. Write fully, then die.
      write_file(path, framed.data(), framed.size(), framed.size(), do_sync);
      if (opts.faults) opts.faults->on_crash_point(path);
      return Status::unavailable("injected crash during write: " + path);
    case WriteFault::kSyncError:
    case WriteFault::kNone:
      break;
  }
  if (!write_file(path, framed.data(), framed.size(), framed.size(), do_sync,
                  fault.fault)) {
    return Status::unavailable("write failed: " + path);
  }
  return Status::ok();
}

Status write_artifact_atomic(const std::string& path, ArtifactKind kind,
                             const void* data, std::size_t n,
                             const DurableOptions& opts) {
  const std::vector<std::uint8_t> framed = frame_artifact(kind, data, n);
  const bool do_sync = opts.sync != SyncMode::kNone;
  const std::string tmp = path + ".tmp";
  WriteFaultSpec fault;
  if (opts.faults) fault = opts.faults->write_fault(path, kind);
  if (fault.fault == WriteFault::kError) {
    return Status::unavailable("injected write error: " + path);
  }
  const std::size_t limit = fault.fault == WriteFault::kTorn
                                ? static_cast<std::size_t>(fault.offset)
                                : framed.size();
  if (!write_file(tmp, framed.data(), framed.size(), limit, do_sync,
                  fault.fault)) {
    return Status::unavailable("write failed: " + tmp);
  }
  if (fault.fault == WriteFault::kCrashBeforeRename) {
    // The temp file exists, the rename never happened: the artifact was
    // never committed. The harness flips the crash flag at this instant.
    if (opts.faults) opts.faults->on_crash_point(path);
    return Status::unavailable("injected crash before rename: " + path);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::unavailable("rename failed: " + path);
  if (fault.fault == WriteFault::kCrashAfterRename) {
    // The rename landed but the writer died before the directory sync (and
    // before observing its own commit). The dirent is on disk — the next
    // scan finds a committed artifact the process never accounted for.
    if (opts.faults) opts.faults->on_crash_point(path);
    return Status::unavailable("injected crash after rename: " + path);
  }
  if (do_sync && !fsync_dir(parent_dir(path))) {
    return Status::unavailable("dir fsync failed: " + path);
  }
  return Status::ok();
}

Status read_raw(const std::string& path, ArtifactKind kind,
                const DurableOptions& opts, std::vector<std::uint8_t>* bytes) {
  ReadFaultSpec fault;
  if (opts.faults) fault = opts.faults->read_fault(path, kind);
  if (fault.fault == ReadFault::kError) {
    return Status::unavailable("injected read error: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::not_found("no such file: " + path);
    return Status::unavailable("open failed: " + path);
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0 || ::lseek(fd, 0, SEEK_SET) < 0) {
    ::close(fd);
    return Status::unavailable("seek failed: " + path);
  }
  bytes->resize(static_cast<std::size_t>(end));
  std::size_t off = 0;
  while (off < bytes->size()) {
    const ssize_t r = ::read(fd, bytes->data() + off, bytes->size() - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::unavailable("read failed: " + path);
    }
    if (r == 0) break;  // concurrent truncation; keep what we got
    off += static_cast<std::size_t>(r);
  }
  bytes->resize(off);
  ::close(fd);
  switch (fault.fault) {
    case ReadFault::kShortRead:
      if (fault.offset < bytes->size()) {
        bytes->resize(static_cast<std::size_t>(fault.offset));
      }
      break;
    case ReadFault::kBitFlip: {
      const std::size_t byte = static_cast<std::size_t>(fault.offset / 8);
      if (byte < bytes->size()) {
        (*bytes)[byte] ^= static_cast<std::uint8_t>(1u << (fault.offset % 8));
      }
      break;
    }
    case ReadFault::kError:
    case ReadFault::kNone:
      break;
  }
  return Status::ok();
}

Status read_artifact(const std::string& path, ArtifactKind kind,
                     const DurableOptions& opts,
                     std::vector<std::uint8_t>* payload) {
  std::vector<std::uint8_t> file;
  const Status st = read_raw(path, kind, opts, &file);
  if (!st.is_ok()) return st;
  return unframe_artifact(path, std::move(file), kind, payload);
}

// --- AppendFile ------------------------------------------------------------

bool AppendFile::open(const std::string& path) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  path_ = path;
  struct stat st {};
  if (fd_ >= 0 && ::fstat(fd_, &st) != 0) close();
  size_ = fd_ >= 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
  return fd_ >= 0;
}

void AppendFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool AppendFile::append(const void* data, std::size_t n,
                        const DurableOptions& opts) {
  if (fd_ < 0) return false;
  WriteFaultSpec fault;
  if (opts.faults) {
    fault = opts.faults->write_fault(path_, ArtifactKind::kSourceLog);
  }
  if (fault.fault == WriteFault::kError) return false;
  std::size_t limit = n;
  if (fault.fault == WriteFault::kTorn) {
    limit = std::min(n, static_cast<std::size_t>(fault.offset));
  }
  bool wrote = write_all(fd_, static_cast<const std::uint8_t*>(data), limit);
  // Not durable is not appended: the caller rolls the bytes back.
  if (wrote && opts.sync == SyncMode::kAlways) {
    wrote = sync_fd(fd_, fault.fault);
  }
  if (fault.fault == WriteFault::kTorn) return false;  // tail is torn
  if (fault.fault == WriteFault::kCrashBeforeRename ||
      fault.fault == WriteFault::kCrashAfterRename) {
    if (opts.faults) opts.faults->on_crash_point(path_);
    return false;
  }
  if (wrote) size_ += n;
  return wrote;
}

bool AppendFile::sync(WriteFault fault) {
  return fd_ >= 0 && sync_fd(fd_, fault);
}

bool AppendFile::truncate(std::uint64_t size) {
  if (fd_ < 0 || ::ftruncate(fd_, static_cast<off_t>(size)) != 0) return false;
  size_ = size;
  return true;
}

}  // namespace ms::storage
