#include "ft/source_log.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/log.h"
#include "ft/epoch_store.h"

namespace ms::ft {

namespace {

/// Serialize one record (the frame body; [len][crc] is the caller's).
void encode_log_record(BinaryWriter& w, std::uint64_t index, int out_port,
                       const core::Tuple& tuple, const TupleCodec& codec) {
  w.write<std::uint64_t>(index);
  w.write<std::int32_t>(static_cast<std::int32_t>(out_port));
  w.write<std::uint64_t>(tuple.id);
  w.write<std::uint32_t>(tuple.source_hau);
  w.write<std::uint64_t>(tuple.source_seq);
  w.write<std::uint64_t>(tuple.edge_seq);
  w.write<std::int64_t>(tuple.event_time.ns());
  w.write<std::uint64_t>(static_cast<std::uint64_t>(tuple.wire_size));
  const bool has_payload =
      tuple.payload != nullptr && codec.encode_payload != nullptr;
  w.write<std::uint8_t>(has_payload ? 1 : 0);
  if (has_payload) codec.encode_payload(*tuple.payload, w);
}

/// Decode one verified frame (the only place a record is decoded).
LogRecord decode_log_record(const LogFrameView& frame,
                            const TupleCodec& codec) {
  // The scanner already enforced len >= kLogFrameFixed, so the fixed fields
  // cannot trip BinaryReader's fail-stop.
  BinaryReader r(frame.data, frame.len);
  LogRecord rec;
  rec.index = r.read<std::uint64_t>();
  rec.out_port = static_cast<int>(r.read<std::int32_t>());
  rec.tuple.id = r.read<std::uint64_t>();
  rec.tuple.source_hau = r.read<std::uint32_t>();
  rec.tuple.source_seq = r.read<std::uint64_t>();
  rec.tuple.edge_seq = r.read<std::uint64_t>();
  rec.tuple.event_time = SimTime::nanos(r.read<std::int64_t>());
  rec.tuple.wire_size = static_cast<Bytes>(r.read<std::uint64_t>());
  const bool has_payload = r.read<std::uint8_t>() != 0;
  if (has_payload && codec.decode_payload) {
    rec.tuple.payload = codec.decode_payload(r);
  }
  return rec;
}

/// Position of the first frame with index >= `index`.
std::size_t first_at_or_past(const std::vector<LogFrameView>& frames,
                             std::uint64_t index) {
  const auto it = std::find_if(
      frames.begin(), frames.end(),
      [index](const LogFrameView& f) { return f.index >= index; });
  return static_cast<std::size_t>(it - frames.begin());
}

/// Wall time since `t0`, for a histogram sample.
SimTime since(std::chrono::steady_clock::time_point t0) {
  return SimTime::nanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
}

}  // namespace

// --- format ------------------------------------------------------------------

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
  // Trailing bytes too short for a frame header are a torn tail as well.
  if (!scan.torn && pos != size) scan.torn = true;
  return scan;
}

Status read_source_log(const std::string& path,
                       const storage::DurableOptions& opts, LogView* view) {
  const Status st = storage::read_raw(path, storage::ArtifactKind::kSourceLog,
                                      opts, &view->bytes);
  if (st.code() == StatusCode::kNotFound) return Status::ok();  // empty log
  if (!st.is_ok()) return st;
  // read_raw reports a short read as success, and one ending on a frame
  // boundary scans clean. Logs are read with appends excluded, so fewer
  // bytes than the file holds is a damaged read, not a shrunk file.
  std::error_code ec;
  const auto fsize = std::filesystem::file_size(path, ec);
  if (ec || view->bytes.size() != fsize) {
    view->bytes.clear();
    return Status::unavailable("short read: " + path);
  }
  auto scan = scan_log_bytes(view->bytes.data(), view->bytes.size(), path);
  if (!scan.is_ok()) {
    view->bytes.clear();
    return scan.status();
  }
  view->scan = std::move(scan).value();
  return Status::ok();
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

std::size_t index_run_end(const std::vector<LogFrameView>& frames,
                          std::size_t pos, std::uint64_t first) {
  for (; pos < frames.size(); ++pos, ++first) {
    if (frames[pos].index != first) break;
  }
  return pos;
}

// --- the logs ----------------------------------------------------------------

SourceLogSet::SourceLogSet(const std::string& dir,
                           const std::vector<int>& sources,
                           storage::DurableOptions opts, TupleCodec codec,
                           MetricsRegistry& metrics)
    : opts_(opts),
      codec_(std::move(codec)),
      m_torn_frames_(metrics.counter("ft.log.torn_frames")),
      m_append_failures_(metrics.counter("ft.log.append_failures")),
      m_truncations_skipped_(metrics.counter("ft.log.truncation_skipped")),
      m_torn_unconfirmed_(metrics.counter("ft.log.torn_unconfirmed")),
      m_append_ns_(metrics.histogram("ft.log.append_ns")),
      m_batch_tuples_(metrics.histogram("ft.log.batch_tuples")),
      m_truncate_ns_(metrics.histogram("ft.log.truncate_ns")),
      m_bytes_(metrics.counter("ft.log.bytes")) {
  for (const int op : sources) {
    const auto idx = static_cast<std::size_t>(op);
    if (logs_.size() <= idx) logs_.resize(idx + 1);
    logs_[idx] = std::make_unique<Log>();
    logs_[idx]->path = source_log_path(dir, op);
  }
}

void SourceLogSet::append(int op, int out_port, const core::Tuple* tuples,
                          std::size_t n) {
  if (n == 0) return;
  Log& log = *logs_[static_cast<std::size_t>(op)];
  std::scoped_lock lk(log.mu);
  const auto t0 = std::chrono::steady_clock::now();
  // One buffer, one write(): [header] then [len][crc32c(record)][record] per
  // tuple, the header only into an empty file.
  BinaryWriter w(std::move(log.batch));
  if (log.out.size() == 0) {
    const auto hdr = log_file_header();
    w.write_bytes(hdr.data(), hdr.size());
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t at = w.size();
    w.write<std::uint64_t>(0);  // [len][crc], patched below
    encode_log_record(w, log.next_index + k, out_port, tuples[k], codec_);
    const auto len = static_cast<std::uint32_t>(w.size() - at - 8);
    w.write_at<std::uint32_t>(at, len);
    w.write_at<std::uint32_t>(
        at + 4, storage::crc32c(w.data().data() + at + 8, len));
  }
  log.batch = w.take();
  if (log.out.append(log.batch.data(), log.batch.size(), opts_)) {
    m_bytes_->add(static_cast<std::int64_t>(log.batch.size()));
  } else {
    // The batch still goes downstream but no recovery could replay it until
    // a checkpoint boundary passes its indices: health() shows the window.
    MS_LOG_WARN("ft",
                "source log append failed for op %d (indices %llu..%llu)", op,
                static_cast<unsigned long long>(log.next_index),
                static_cast<unsigned long long>(log.next_index + n - 1));
    m_append_failures_->add(1);
    log.failed_since = std::min(log.failed_since, log.next_index);
    // Cut the partial batch (or header) back, or every later frame would
    // sit behind a tear the next scan stops at.
    if (log.out.is_open() && !log.out.rollback()) {
      MS_LOG_WARN("ft", "source log rollback failed for op %d", op);
    }
  }
  log.next_index += n;
  m_append_ns_->record(since(t0));
  m_batch_tuples_->record(SimTime::nanos(static_cast<std::int64_t>(n)));
}

Status SourceLogSet::scan(const std::vector<std::uint64_t>& boundaries) {
  Status first_error = Status::ok();
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    if (!logs_[i]) continue;
    Log& log = *logs_[i];
    std::scoped_lock lk(log.mu);
    if (!log.view) {  // a cached view is still the file's
      const Status st = load(static_cast<int>(i), log);
      if (!st.is_ok()) {
        // The bytes may be fine or not; cursors taken off this read could
        // reuse record indices.
        MS_LOG_WARN("ft", "source log %zu unreadable at scan: %s", i,
                    st.message().c_str());
        if (first_error.is_ok()) first_error = st;
        continue;
      }
    }
    // Appends that failed just before the cut are in neither the file nor
    // the snapshot; the engine's emission count resumes past them.
    const std::vector<LogFrameView>& frames = log.view->scan.frames;
    const std::uint64_t cut = i < boundaries.size() ? boundaries[i] : 0;
    log.begin_index = frames.empty() ? cut : frames.front().index;
    log.next_index =
        frames.empty() ? cut : std::max(cut, frames.back().index + 1);
  }
  return first_error;
}

Status SourceLogSet::load(int op, Log& log) {
  log.out.close();
  auto view = std::make_unique<LogView>();
  Status st = read_source_log(log.path, opts_, view.get());
  if (st.is_ok() && view->scan.torn) {
    // Trimming a torn tail drops every byte past it, and a bit flipped in
    // the read looks just like one flipped on disk. Read again: only a tear
    // both reads place at the same offset is in the file.
    auto again = std::make_unique<LogView>();
    st = read_source_log(log.path, opts_, again.get());
    if (st.is_ok() && (!again->scan.torn ||
                       again->scan.valid_bytes != view->scan.valid_bytes)) {
      MS_LOG_WARN("ft", "source log %d: torn at %llu on one read, %s on the "
                  "next; keeping the file",
                  op, static_cast<unsigned long long>(view->scan.valid_bytes),
                  again->scan.torn ? "elsewhere" : "whole");
      m_torn_unconfirmed_->add(1);
      if (again->scan.torn) {
        st = Status::unavailable("source log reads disagree: " + log.path);
      } else {
        view = std::move(again);
      }
    }
  }
  if (!st.is_ok()) return st;
  if (view->scan.torn) {
    // Both reads agree. Rewrite the file without the tail, or the garbage
    // would resurface mid-log after the next append.
    MS_LOG_WARN("ft", "source log %d: torn at byte %llu of %zu; rewriting "
                "the whole frames before it",
                op, static_cast<unsigned long long>(view->scan.valid_bytes),
                view->bytes.size());
    st = rewrite(log, view->scan, 0);
    if (!st.is_ok()) return st;
    m_torn_frames_->add(1);
    view->scan.torn = false;  // the view mirrors the file's frames again
  }
  log.out.open(log.path);
  log.view = std::move(view);
  return Status::ok();
}

Status SourceLogSet::rewrite(Log& log, const LogScan& scan,
                             std::uint64_t bound) {
  const std::vector<std::uint8_t> image = log_suffix_image(scan, bound);
  log.out.close();
  return storage::write_raw_atomic(log.path, storage::ArtifactKind::kSourceLog,
                                   image.data(), image.size(), opts_);
}

void SourceLogSet::truncate(int op, std::uint64_t floor) {
  Log& log = *logs_[static_cast<std::size_t>(op)];
  std::scoped_lock lk(log.mu);
  // Past the floor no recovery candidate needs the missing record.
  if (log.failed_since < floor) log.failed_since = Log::kNoAppendFailure;
  if (floor <= log.begin_index) return;  // nothing behind the floor
  const auto t0 = std::chrono::steady_clock::now();
  LogView view;
  const Status st = read_source_log(log.path, opts_, &view);
  // A whole read holds every record from the floor to next_index - 1. One
  // that ends early (an error, a short read, a flipped bit) or misses one
  // would commit an image without records the sink may already have.
  const std::vector<LogFrameView>& frames = view.scan.frames;
  const std::size_t from = first_at_or_past(frames, floor);
  const bool complete = st.is_ok() && !view.scan.torn &&
                        index_run_end(frames, from, floor) == frames.size() &&
                        floor + (frames.size() - from) == log.next_index;
  if (!complete) {
    MS_LOG_WARN("ft", "source log truncation skipped for op %d: %s", op,
                st.is_ok() ? "a record past the floor is not in the read"
                           : st.message().c_str());
    m_truncations_skipped_->add(1);
    m_truncate_ns_->record(since(t0));
    return;
  }
  const Status wst = rewrite(log, view.scan, floor);
  if (wst.is_ok()) {
    log.begin_index = floor;
  } else {
    MS_LOG_WARN("ft", "source log truncation failed for op %d: %s", op,
                wst.message().c_str());
  }
  log.out.open(log.path);
  m_truncate_ns_->record(since(t0));
}

Status SourceLogSet::replay(int op, std::uint64_t boundary,
                            std::vector<LogRecord>* out) const {
  Log& log = *logs_[static_cast<std::size_t>(op)];
  std::scoped_lock lk(log.mu);
  MS_CHECK_MSG(log.view != nullptr, "SourceLogSet: replay without a scan");
  const std::vector<LogFrameView>& frames = log.view->scan.frames;
  const std::size_t from = first_at_or_past(frames, boundary);
  const std::size_t end = index_run_end(frames, from, boundary);
  if (end != frames.size()) {
    // A record a failed append left out went downstream before the crash
    // and cannot be replayed.
    return Status::data_loss(
        "source log " + std::to_string(op) + " is missing record " +
        std::to_string(boundary + (end - from)) + " past the boundary");
  }
  out->clear();
  out->reserve(end - from);
  for (std::size_t k = from; k < end; ++k) {
    out->push_back(decode_log_record(frames[k], codec_));
  }
  return Status::ok();
}

void SourceLogSet::drop_views() {
  for (const auto& log : logs_) {
    if (!log) continue;
    std::scoped_lock lk(log->mu);
    log->view.reset();
  }
}

Status SourceLogSet::health() const {
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    if (!logs_[i]) continue;
    std::scoped_lock lk(logs_[i]->mu);
    if (logs_[i]->failed_since != Log::kNoAppendFailure) {
      return Status::data_loss(
          "source log " + std::to_string(i) +
          " is missing records from index " +
          std::to_string(logs_[i]->failed_since) +
          " (append failed; not yet covered by a committed checkpoint)");
    }
  }
  return Status::ok();
}

}  // namespace ms::ft
