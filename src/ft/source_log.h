// Source preservation: one append-only log per source operator. Every tuple
// a source emits is logged before it is dispatched (durable-before-dispatch),
// and recovery replays the tuples past the checkpoint cut. SourceLogSet owns
// the log's format and lifecycle; EpochStore only names the files
// (source_log_path, source_segment_path), and RtRuntime passes committed
// boundaries in.
//
// Layout: each log is a chain of segments. The head, source_<op>.log, takes
// the appends; a sealed segment, source_<op>.<first>-<last>.log, is a former
// head renamed at a commit, holding records first..last. A segment is
// nothing but consecutive MSDF frames of kind kSourceLog
// (storage/durable_file.h), one per batch the engine flushed, whose payload
// is [first_index u64][n u32][port u32], then n records of
// [source_seq u64][event_time i64][wire_size u64][has_payload u8] and the
// codec's payload. A record's index (first_index + k), port, source_hau
// (the log's op), id (make_id of the op and source_seq, the stamp
// RtContext::emit gives every source tuple) and edge_seq (0) are derived on
// decode. The only tear a crash can leave is a short last frame of the
// head.
//
// The append: a group commit per batch the engine flushes — the batch
// encoded as one frame into one reused buffer and issued as one write() (one
// fdatasync under SyncMode::kAlways) to the head. A failed batch is one
// append failure: cut back whole by truncation, counted once
// (ft.log.append_failures), and open in health() from its first index
// until a truncation floor passes it. Each batch records ft.log.append_ns
// (encode, CRC and write), ft.log.batch_tuples and ft.log.bytes.
//
// The roll (once a commit's manifest is durable, when the new truncation
// floor has reached the head's first record): fdatasync the head without the
// lock, then under it sync what appends added meanwhile, rename the head to
// its sealed name and open a fresh head; fsync the directory after
// (ft.log.roll_ns). A seal that fails before the rename keeps the head as it
// is (ft.log.roll_failures) and the next commit retries. The truncation
// unlinks every sealed segment whose last record is below the floor
// (ft.log.segments_unlinked, ft.log.truncate_ns); it reads and writes no
// log, and holds the lock only to close the append-failure window, so the
// appender never waits for an unlink.
//
// The scan reads the head and the sealed segments at or past the committed
// tip's boundary through storage::scan_frames, with a second read to
// confirm a torn or damaged verdict. A confirmed tear in the head is cut off
// in place (one ftruncate, and an fdatasync unless SyncMode::kNone); in a
// sealed segment it is kDataLoss. Damage — a bad frame with verifying
// frames after it, or a segment that does not open with the MSDF magic — is
// kDataLoss in any segment, as is a sealed segment whose batches do not
// span its name's range or two segments whose ranges overlap. Contiguity
// within and across segments follows the index-run rule from the replay
// boundary on. A failed read, damage or a failed trim leaves the files as
// they are.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/serialize.h"
#include "common/status.h"
#include "core/tuple.h"
#include "ft/epoch_store.h"
#include "storage/durable_file.h"

namespace ms::ft {

// --- format ------------------------------------------------------------------

/// A batch frame's bytes before its records: the MSDF header, then
/// [first_index][n][port].
constexpr std::size_t kLogBatchHeaderSize = storage::kArtifactHeaderSize + 16;

/// One verified batch frame inside the scanned buffer (valid while the buffer
/// lives): records first..end() - 1, published on `port`, whose `size`
/// encoded bytes start at `records`; read without decoding them.
struct LogFrameView {
  std::uint64_t first = 0;
  std::uint32_t n = 0;
  int port = 0;
  const std::uint8_t* records = nullptr;
  std::uint32_t size = 0;
  std::uint64_t end() const { return first + n; }
};

struct LogScan {
  /// Ended on a tear (a last frame cut short) at `valid_bytes`.
  bool torn = false;
  std::uint64_t valid_bytes = 0;
  std::vector<LogFrameView> frames;
};

/// A log's frames, by storage::scan_frames: empty = a fresh log; a tear
/// ends the scan (`torn`); damage, and a verified frame too short for its
/// batch, are kDataLoss.
Result<LogScan> scan_log_bytes(const std::uint8_t* data, std::size_t size,
                               const std::string& path);

/// A log's bytes and their scan (whose frames point into `bytes`).
struct LogView {
  LogView() = default;
  LogView(const LogView&) = delete;
  LogView& operator=(const LogView&) = delete;
  std::vector<std::uint8_t> bytes;
  LogScan scan;
};

/// Read one whole log segment and scan it into `view`. Missing = an empty
/// segment; damage is kDataLoss; any other failure, a read shorter than the
/// file included, is kUnavailable: "could not look", never "nothing there".
Status read_source_log(const std::string& path,
                       const storage::DurableOptions& opts, LogView* view);

/// The one index-run rule (replay and the scrub use it). Indices are
/// assigned consecutively at append, a batch at a time, so the batches from
/// position `pos` on are whole when the first starts at `first` and each
/// later one where the one before it ended. Returns the position of the
/// first batch that breaks the run: frames.size() when none does.
std::size_t index_run_end(const std::vector<LogFrameView>& frames,
                          std::size_t pos, std::uint64_t first);

// --- records -----------------------------------------------------------------

/// How records carry payloads across a restart: only the embedder knows the
/// concrete payload types. Absent codec = payloads are dropped on replay
/// (size-only workloads).
struct TupleCodec {
  std::function<void(const core::Payload&, BinaryWriter&)> encode_payload;
  std::function<std::shared_ptr<const core::Payload>(BinaryReader&)>
      decode_payload;
};

/// A logged batch rehydrated for replay: records first.. on `port`.
struct LogBatch {
  std::uint64_t first = 0;
  int port = 0;
  std::vector<core::Tuple> tuples;
};

// --- the logs ----------------------------------------------------------------

/// Every source's preservation log, each with its own mutex.
class SourceLogSet {
 public:
  /// One log per op in `sources`; nothing is read or written until scan().
  SourceLogSet(const std::string& dir, const std::vector<int>& sources,
               storage::DurableOptions opts, TupleCodec codec,
               MetricsRegistry& metrics);

  /// The engine's source tap: log `tuples[0..n)` as source `op`'s next `n`
  /// records, consecutive indices, in one frame and one write before the
  /// batch is dispatched.
  void append(int op, int out_port, const core::Tuple* tuples, std::size_t n);

  /// With nothing appending: list each log's segments and read (and trim)
  /// its head and every sealed segment at or past `boundaries[op]` (the
  /// committed tip's boundary) that has no cached view; cache the views for
  /// replay(), and continue each log's record indices past its last record
  /// and that boundary. Returns the first failure.
  Status scan(const std::vector<std::uint64_t>& boundaries);

  /// Commit-time seal, once the commit's manifest is durable (roll,
  /// truncate, scan and replay run on one thread at a time): when `floor`
  /// (the committed epochs' lowest boundary) has reached the head's first
  /// record, rename the head to a sealed segment, so that a later floor
  /// past its last record unlinks it whole. Each seal records
  /// ft.log.roll_ns; a failed one counts ft.log.roll_failures and leaves the
  /// head as it is.
  void roll(int op, std::uint64_t floor);

  /// Commit-time truncation to `floor`: closes the append-failure window the
  /// floor passes and unlinks every sealed segment whose last record is
  /// below it. A call that unlinks records its wall time in
  /// ft.log.truncate_ns.
  void truncate(int op, std::uint64_t floor);

  /// Decode source `op`'s batches from `boundary` on, across its segments,
  /// out of the cached views (reading a sealed segment an older boundary
  /// needs first). A boundary is a batch start (the engine counts a source's
  /// emissions a flushed batch at a time), so a record missing from the
  /// run, or a boundary inside a batch, is kDataLoss; batches below the
  /// boundary are the snapshot's and are neither checked nor decoded.
  Status replay(int op, std::uint64_t boundary, std::vector<LogBatch>* out);

  /// Drop every cached view: the engine is about to append.
  void drop_views();

  /// kDataLoss while a log misses a record from a failed append that no
  /// truncation floor has passed yet.
  Status health() const;

 private:
  /// A sealed segment: its name's range, and its view while cached.
  struct Segment {
    std::uint64_t first = 0;
    std::uint64_t last = 0;
    std::string path;
    std::unique_ptr<LogView> view;
  };

  struct Log {
    /// failed_since value meaning "no uncovered append failure".
    static constexpr std::uint64_t kNoAppendFailure = ~std::uint64_t{0};

    std::mutex mu;
    int op = 0;
    std::string path;               // the head
    storage::AppendFile out;        // the head's append handle
    /// The head's records: indices head_first..head_end - 1 (empty when
    /// equal), gaps from failed appends included.
    std::uint64_t head_first = 0;
    std::uint64_t head_end = 0;
    std::uint64_t next_index = 0;   // index the next append gets
    /// Lowest index whose append failed (its tuple went downstream).
    std::uint64_t failed_since = kNoAppendFailure;
    /// The append's encode buffer, kept between batches for its capacity.
    std::vector<std::uint8_t> batch;
    /// Sealed segments, ascending, as the last scan listed them plus the
    /// rolls since. The appender never touches them: only the serialized
    /// roll, truncate, scan and replay do.
    std::vector<Segment> sealed;
    /// The head's view from the last scan, while nothing has changed it.
    std::unique_ptr<LogView> view;
  };

  /// Read `path` into `*out`, confirming a torn or damaged verdict with a
  /// second read.
  Status read_confirmed(int op, const std::string& path,
                        std::unique_ptr<LogView>* out);
  /// List `log`'s sealed segments from `files`, read its head and trim a
  /// confirmed tear; on success cache the view and open the handle.
  Status load_head(Log& log, const std::vector<SourceLogFile>& files);
  /// Read every sealed segment with a record at or past `boundary` that has
  /// no cached view, and check each against its name.
  Status load_sealed(Log& log, std::uint64_t boundary);

  std::string dir_;
  storage::DurableOptions opts_;
  TupleCodec codec_;
  std::vector<std::unique_ptr<Log>> logs_;  // index = op; null if not a source
  Counter* m_torn_frames_;          // ft.log.torn_frames
  Counter* m_append_failures_;      // ft.log.append_failures
  Counter* m_torn_unconfirmed_;     // ft.log.torn_unconfirmed
  Counter* m_roll_failures_;        // ft.log.roll_failures
  Counter* m_segments_unlinked_;    // ft.log.segments_unlinked
  HistogramMetric* m_append_ns_;     // ft.log.append_ns, per batch
  HistogramMetric* m_batch_tuples_;  // ft.log.batch_tuples, per batch
  HistogramMetric* m_roll_ns_;       // ft.log.roll_ns, per seal
  HistogramMetric* m_truncate_ns_;   // ft.log.truncate_ns, per unlink pass
  Counter* m_bytes_;                 // ft.log.bytes appended
};

}  // namespace ms::ft
