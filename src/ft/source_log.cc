#include "ft/source_log.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/log.h"

namespace ms::ft {

namespace {

/// A record's fixed fields, before the codec's payload.
constexpr std::size_t kLogRecordFixed =
    8 /*source_seq*/ + 8 /*event_time*/ + 8 /*wire_size*/ + 1 /*has_payload*/;

/// Serialize one record of a batch frame.
void encode_log_record(BinaryWriter& w, const core::Tuple& tuple,
                       const TupleCodec& codec) {
  w.write<std::uint64_t>(tuple.source_seq);
  w.write<std::int64_t>(tuple.event_time.ns());
  w.write<std::uint64_t>(static_cast<std::uint64_t>(tuple.wire_size));
  const bool has_payload =
      tuple.payload != nullptr && codec.encode_payload != nullptr;
  w.write<std::uint8_t>(has_payload ? 1 : 0);
  if (has_payload) codec.encode_payload(*tuple.payload, w);
}

/// Decode source `op`'s verified batch (the only place records are decoded).
LogBatch decode_log_batch(const LogFrameView& frame, int op,
                          const TupleCodec& codec) {
  // The scanner already enforced n fixed-width records' worth of bytes, so
  // the fixed fields cannot trip BinaryReader's fail-stop.
  BinaryReader r(frame.records, frame.size);
  LogBatch batch{frame.first, frame.port, std::vector<core::Tuple>(frame.n)};
  for (core::Tuple& t : batch.tuples) {
    t.source_hau = static_cast<std::uint32_t>(op);
    t.source_seq = r.read<std::uint64_t>();
    t.id = core::Tuple::make_id(t.source_hau, t.source_seq);
    t.event_time = SimTime::nanos(r.read<std::int64_t>());
    t.wire_size = static_cast<Bytes>(r.read<std::uint64_t>());
    if (r.read<std::uint8_t>() == 0) continue;
    // Only the decoder of the codec that wrote a payload finds its end.
    MS_CHECK_MSG(codec.decode_payload != nullptr,
                 "SourceLogSet: a logged payload needs the codec's decoder");
    t.payload = codec.decode_payload(r);
  }
  return batch;
}

/// Wall time since `t0`, for a histogram sample.
SimTime since(std::chrono::steady_clock::time_point t0) {
  return SimTime::nanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
}

}  // namespace

// --- format ------------------------------------------------------------------

Result<LogScan> scan_log_bytes(const std::uint8_t* data, std::size_t size,
                               const std::string& path) {
  auto framed = storage::scan_frames(data, size,
                                     storage::ArtifactKind::kSourceLog, path);
  if (!framed.is_ok()) return framed.status();
  LogScan scan{framed.value().torn, framed.value().valid_bytes, {}};
  constexpr std::size_t kFields = kLogBatchHeaderSize -
                                  storage::kArtifactHeaderSize;
  for (const storage::FrameView& f : framed.value().frames) {
    LogFrameView frame;
    // No writer produces an empty batch or one too short for its records'
    // fixed fields, so such a frame is damage even though it verifies.
    if (f.size >= kFields) {
      std::memcpy(&frame.first, f.payload, 8);
      std::memcpy(&frame.n, f.payload + 8, 4);
      std::memcpy(&frame.port, f.payload + 12, 4);
      frame.records = f.payload + kFields;
      frame.size = static_cast<std::uint32_t>(f.size - kFields);
    }
    if (frame.n == 0 || frame.size / kLogRecordFixed < frame.n) {
      return Status::data_loss("source log batch " +
                               std::to_string(scan.frames.size()) +
                               " malformed: " + path);
    }
    scan.frames.push_back(frame);
  }
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

std::size_t index_run_end(const std::vector<LogFrameView>& frames,
                          std::size_t pos, std::uint64_t first) {
  for (; pos < frames.size() && frames[pos].first == first; ++pos) {
    first = frames[pos].end();
  }
  return pos;
}

// --- the logs ----------------------------------------------------------------

SourceLogSet::SourceLogSet(const std::string& dir,
                           const std::vector<int>& sources,
                           storage::DurableOptions opts, TupleCodec codec,
                           MetricsRegistry& metrics)
    : dir_(dir),
      opts_(opts),
      codec_(std::move(codec)),
      m_torn_frames_(metrics.counter("ft.log.torn_frames")),
      m_append_failures_(metrics.counter("ft.log.append_failures")),
      m_torn_unconfirmed_(metrics.counter("ft.log.torn_unconfirmed")),
      m_roll_failures_(metrics.counter("ft.log.roll_failures")),
      m_segments_unlinked_(metrics.counter("ft.log.segments_unlinked")),
      m_append_ns_(metrics.histogram("ft.log.append_ns")),
      m_batch_tuples_(metrics.histogram("ft.log.batch_tuples")),
      m_roll_ns_(metrics.histogram("ft.log.roll_ns")),
      m_truncate_ns_(metrics.histogram("ft.log.truncate_ns")),
      m_bytes_(metrics.counter("ft.log.bytes")) {
  for (const int op : sources) {
    const auto idx = static_cast<std::size_t>(op);
    if (logs_.size() <= idx) logs_.resize(idx + 1);
    logs_[idx] = std::make_unique<Log>();
    logs_[idx]->op = op;
    logs_[idx]->path = source_log_path(dir, op);
  }
}

void SourceLogSet::append(int op, int out_port, const core::Tuple* tuples,
                          std::size_t n) {
  if (n == 0) return;
  Log& log = *logs_[static_cast<std::size_t>(op)];
  std::scoped_lock lk(log.mu);
  const auto t0 = std::chrono::steady_clock::now();
  // One buffer, one write(): the batch's one frame, its header filled in
  // once the payload behind it is encoded.
  BinaryWriter w(std::move(log.batch));
  const std::uint8_t header[storage::kArtifactHeaderSize] = {};
  w.write_bytes(header, sizeof(header));
  w.write<std::uint64_t>(log.next_index);
  w.write<std::uint32_t>(static_cast<std::uint32_t>(n));
  w.write<std::uint32_t>(static_cast<std::uint32_t>(out_port));
  for (std::size_t k = 0; k < n; ++k) encode_log_record(w, tuples[k], codec_);
  log.batch = w.take();
  storage::write_frame_header(log.batch.data(),
                              storage::ArtifactKind::kSourceLog,
                              log.batch.size() - sizeof(header));
  if (log.out.append(log.batch.data(), log.batch.size(), opts_)) {
    m_bytes_->add(static_cast<std::int64_t>(log.batch.size()));
    if (log.head_end == log.head_first) log.head_first = log.next_index;
    log.head_end = log.next_index + n;
  } else {
    // The batch still goes downstream but no recovery could replay it until
    // a checkpoint boundary passes its indices: health() shows the window.
    MS_LOG_WARN("ft",
                "source log append failed for op %d (indices %llu..%llu)", op,
                static_cast<unsigned long long>(log.next_index),
                static_cast<unsigned long long>(log.next_index + n - 1));
    m_append_failures_->add(1);
    log.failed_since = std::min(log.failed_since, log.next_index);
    // Cut the partial batch back, or every later frame would sit behind a
    // tear the next scan stops at.
    if (log.out.is_open() && !log.out.truncate(log.out.size())) {
      MS_LOG_WARN("ft", "source log rollback failed for op %d", op);
    }
  }
  log.next_index += n;
  m_append_ns_->record(since(t0));
  m_batch_tuples_->record(SimTime::nanos(static_cast<std::int64_t>(n)));
}

Status SourceLogSet::scan(const std::vector<std::uint64_t>& boundaries) {
  Status first_error = Status::ok();
  const std::vector<SourceLogFile> files = list_source_logs(dir_);
  for (std::size_t i = 0; i < logs_.size(); ++i) {
    if (!logs_[i]) continue;
    Log& log = *logs_[i];
    std::scoped_lock lk(log.mu);
    const std::uint64_t cut = i < boundaries.size() ? boundaries[i] : 0;
    Status st = Status::ok();
    if (!log.view) st = load_head(log, files);  // a cached view is current
    if (st.is_ok()) st = load_sealed(log, cut);
    if (!st.is_ok()) {
      // The bytes may be fine or not; cursors taken off this read could
      // reuse record indices.
      MS_LOG_WARN("ft", "source log %zu unreadable at scan: %s", i,
                  st.message().c_str());
      if (first_error.is_ok()) first_error = st;
      continue;
    }
    // Appends that failed just before the cut are in no segment and not in
    // the snapshot; the engine's emission count resumes past them.
    log.next_index = std::max(cut, log.head_end);
    if (log.head_end == log.head_first) {
      log.head_first = log.head_end = log.next_index;
    }
  }
  return first_error;
}

Status SourceLogSet::read_confirmed(int op, const std::string& path,
                                    std::unique_ptr<LogView>* out) {
  const auto suspect = [](const Status& st, const LogView& view) {
    return st.code() == StatusCode::kDataLoss || (st.is_ok() && view.scan.torn);
  };
  auto view = std::make_unique<LogView>();
  Status st = read_source_log(path, opts_, view.get());
  if (suspect(st, *view)) {
    // A bit flipped in the read looks just like a tear or damage on disk.
    // Read again: only the verdict both reads reach — a tear at one offset,
    // or damage at one — is in the file.
    auto again = std::make_unique<LogView>();
    const Status second = read_source_log(path, opts_, again.get());
    if (!second.is_ok() && second.code() != StatusCode::kDataLoss) {
      return second;
    }
    if (second.message() != st.message() ||
        again->scan.torn != view->scan.torn ||
        again->scan.valid_bytes != view->scan.valid_bytes) {
      const bool whole = !suspect(second, *again);
      MS_LOG_WARN("ft", "source log %d: %s %s on one read, %s on the next; "
                  "keeping the file",
                  op, path.c_str(), st.is_ok() ? "torn" : "damaged",
                  whole ? "whole" : "different");
      m_torn_unconfirmed_->add(1);
      if (!whole) {
        return Status::unavailable("source log reads disagree: " + path);
      }
      st = second;
      view = std::move(again);
    }
  }
  if (!st.is_ok()) return st;
  *out = std::move(view);
  return Status::ok();
}

Status SourceLogSet::load_head(Log& log,
                               const std::vector<SourceLogFile>& files) {
  log.out.close();
  log.sealed.clear();
  for (const SourceLogFile& f : files) {
    if (f.op != log.op || !f.sealed) continue;
    if (!log.sealed.empty() && f.first <= log.sealed.back().last) {
      return Status::data_loss("source log segments overlap: " +
                               log.sealed.back().path + " and " + f.path);
    }
    log.sealed.push_back({f.first, f.last, f.path, nullptr});
  }
  std::unique_ptr<LogView> view;
  const Status st = read_confirmed(log.op, log.path, &view);
  if (!st.is_ok()) return st;
  const std::vector<LogFrameView>& frames = view->scan.frames;
  const std::uint64_t sealed_end =
      log.sealed.empty() ? 0 : log.sealed.back().last + 1;
  if (!frames.empty() && frames.front().first < sealed_end) {
    return Status::data_loss("source log head overlaps " +
                             log.sealed.back().path + ": " + log.path);
  }
  log.out.open(log.path);
  if (view->scan.torn) {
    // Both reads agree. Cut the tear off in place, or the garbage would
    // resurface mid-log after the next append.
    MS_LOG_WARN("ft", "source log %d: torn at byte %llu of %zu; truncating",
                log.op, static_cast<unsigned long long>(view->scan.valid_bytes),
                view->bytes.size());
    storage::WriteFaultSpec fault;
    if (opts_.faults) {
      fault = opts_.faults->write_fault(log.path,
                                        storage::ArtifactKind::kSourceLog);
    }
    if (fault.fault == storage::WriteFault::kError ||
        !log.out.truncate(view->scan.valid_bytes) ||
        (opts_.sync != storage::SyncMode::kNone &&
         !log.out.sync(fault.fault))) {
      log.out.close();
      return Status::unavailable("source log trim failed: " + log.path);
    }
    m_torn_frames_->add(1);
    view->scan.torn = false;  // the view mirrors the file's frames again
  }
  log.head_first = frames.empty() ? sealed_end : frames.front().first;
  log.head_end = frames.empty() ? sealed_end : frames.back().end();
  log.view = std::move(view);
  return Status::ok();
}

Status SourceLogSet::load_sealed(Log& log, std::uint64_t boundary) {
  for (Segment& seg : log.sealed) {
    if (seg.last < boundary || seg.view) continue;
    std::unique_ptr<LogView> view;
    const Status st = read_confirmed(log.op, seg.path, &view);
    if (!st.is_ok()) return st;
    // A sealed segment was whole when it was renamed, and its name is the
    // range it held.
    const LogScan& scan = view->scan;
    if (scan.torn) {
      return Status::data_loss("sealed source log segment torn at byte " +
                               std::to_string(scan.valid_bytes) + ": " +
                               seg.path);
    }
    if (scan.frames.empty() || scan.frames.front().first != seg.first ||
        scan.frames.back().end() != seg.last + 1) {
      return Status::data_loss(
          "sealed source log segment's batches do not span its name's "
          "range: " + seg.path);
    }
    seg.view = std::move(view);
  }
  return Status::ok();
}

void SourceLogSet::roll(int op, std::uint64_t floor) {
  Log& log = *logs_[static_cast<std::size_t>(op)];
  std::uint64_t synced = 0;
  {
    std::scoped_lock lk(log.mu);
    // The head is sealed once the floor has reached its first record, so
    // segments are cut where the floor stands and the floor's next move
    // past one drops it by an unlink. A head still wholly newer than the
    // floor stays whole, records past this commit's own cut included, so a
    // recovery from this commit reads the head alone.
    if (!log.out.is_open() || log.head_end == log.head_first ||
        log.head_first > floor) {
      return;
    }
    synced = log.out.size();
  }
  const auto t0 = std::chrono::steady_clock::now();
  storage::WriteFaultSpec fault;
  if (opts_.faults) {
    fault = opts_.faults->write_fault(log.path,
                                      storage::ArtifactKind::kSourceLog);
  }
  const bool do_sync = opts_.sync != storage::SyncMode::kNone;
  // The bulk of the sync runs while the source goes on appending.
  bool ok = fault.fault != storage::WriteFault::kError &&
            (!do_sync || log.out.sync(fault.fault));
  if (ok && fault.fault == storage::WriteFault::kCrashBeforeRename) {
    if (opts_.faults) opts_.faults->on_crash_point(log.path);
    return;
  }
  if (ok) {
    std::scoped_lock lk(log.mu);
    // What the source appended during that sync is sealed too.
    if (do_sync && log.out.size() != synced) ok = log.out.sync(fault.fault);
    const std::string path = source_segment_path(
        dir_, op, log.head_first, log.head_end - 1);
    std::error_code ec;
    if (ok) std::filesystem::rename(log.path, path, ec);
    ok = ok && !ec;
    if (ok) {
      log.sealed.push_back({log.head_first, log.head_end - 1, path, nullptr});
      log.head_first = log.head_end = log.next_index;
      // Closes the sealed file's handle; a head that cannot be created
      // fails the appends, each one counted.
      if (!log.out.open(log.path)) {
        MS_LOG_WARN("ft", "source log %d: cannot open a fresh head", op);
      }
    }
  }
  if (!ok) {
    MS_LOG_WARN("ft", "source log %d: seal failed; the head stays and the "
                "next commit retries", op);
    m_roll_failures_->add(1);
    return;
  }
  if (fault.fault == storage::WriteFault::kCrashAfterRename) {
    if (opts_.faults) opts_.faults->on_crash_point(log.path);
    return;
  }
  if (do_sync && !storage::fsync_dir(dir_)) {
    MS_LOG_WARN("ft", "source log %d: directory sync after a seal failed", op);
    m_roll_failures_->add(1);
    return;
  }
  m_roll_ns_->record(since(t0));
}

void SourceLogSet::truncate(int op, std::uint64_t floor) {
  Log& log = *logs_[static_cast<std::size_t>(op)];
  {
    std::scoped_lock lk(log.mu);
    // Past the floor no recovery candidate needs the missing record.
    if (log.failed_since < floor) log.failed_since = Log::kNoAppendFailure;
  }
  // The appender never touches the sealed segments: unlink without the lock.
  if (log.sealed.empty() || log.sealed.front().last >= floor) return;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t n = 0;
  for (; n < log.sealed.size() && log.sealed[n].last < floor; ++n) {
    std::error_code ec;
    std::filesystem::remove(log.sealed[n].path, ec);
    if (ec) {
      // Kept, with every later segment: the next commit retries.
      MS_LOG_WARN("ft", "source log %d: cannot unlink %s: %s", op,
                  log.sealed[n].path.c_str(), ec.message().c_str());
      break;
    }
  }
  log.sealed.erase(log.sealed.begin(),
                   log.sealed.begin() + static_cast<std::ptrdiff_t>(n));
  m_segments_unlinked_->add(static_cast<std::int64_t>(n));
  m_truncate_ns_->record(since(t0));
}

Status SourceLogSet::replay(int op, std::uint64_t boundary,
                            std::vector<LogBatch>* out) {
  Log& log = *logs_[static_cast<std::size_t>(op)];
  std::scoped_lock lk(log.mu);
  MS_CHECK_MSG(log.view != nullptr, "SourceLogSet: replay without a scan");
  // An epoch older than the tip the scan used may need older segments.
  const Status st = load_sealed(log, boundary);
  if (!st.is_ok()) return st;
  out->clear();
  // The run crosses the segments in index order, from the boundary on.
  std::uint64_t next = boundary;
  const auto take = [&](const std::vector<LogFrameView>& frames) {
    std::size_t k = 0;
    while (k < frames.size() && frames[k].first < boundary) ++k;
    const std::size_t end = index_run_end(frames, k, next);
    for (; k < end; ++k) {
      out->push_back(decode_log_batch(frames[k], op, codec_));
      next = frames[k].end();
    }
    return end == frames.size();
  };
  bool whole = true;
  for (const Segment& seg : log.sealed) {
    if (seg.last >= boundary) whole = whole && take(seg.view->scan.frames);
  }
  whole = whole && take(log.view->scan.frames);
  if (!whole) {
    // A record a failed append left out went downstream before the crash
    // and cannot be replayed.
    return Status::data_loss("source log " + std::to_string(op) +
                             " is missing record " + std::to_string(next) +
                             " past the boundary");
  }
  return Status::ok();
}

void SourceLogSet::drop_views() {
  for (const auto& log : logs_) {
    if (!log) continue;
    std::scoped_lock lk(log->mu);
    log->view.reset();
    for (Segment& seg : log->sealed) seg.view.reset();
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
