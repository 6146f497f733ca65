// Source preservation: one append-only log per source operator. Every tuple
// a source emits is logged before it is dispatched (durable-before-dispatch),
// and recovery replays the tuples past the checkpoint cut. SourceLogSet owns
// the log's format and lifecycle; EpochStore only names the file
// (source_log_path), and RtRuntime passes committed boundaries in.
//
// Format: an 8-byte "MSLG" header, then one [len][crc32c][record] frame per
// tuple; a record is kLogFrameFixed bytes of fields (the index first), then
// the codec's payload. The only tear a crash can leave is a short last frame.
//
// Two writers. The append: a group commit per batch the engine flushes —
// every record of the batch framed into one reused buffer and issued as one
// write() (one fdatasync under SyncMode::kAlways), carrying the header too
// when the file is empty. A failed batch — header included — is one append
// failure: cut back whole, counted once (ft.log.append_failures), and open
// in health() from its first index until a truncation floor passes it.
// Each batch records ft.log.append_ns (encode, CRC and write),
// ft.log.batch_tuples and ft.log.bytes. The rewrite: the verified
// frames' image through storage::write_raw_atomic (fault injection applies),
// keeping the frames from the truncation floor on, or every frame before a
// torn tail two reads confirm. A failed read, a header that does not verify
// or a failed trim leaves the file as it is and the append handle closed.
#pragma once

#include <array>
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
#include "storage/durable_file.h"

namespace ms::ft {

// --- format ------------------------------------------------------------------

constexpr std::uint32_t kLogFileMagic = 0x474C534D;  // "MSLG"
constexpr std::uint32_t kLogFileVersion = 1;
constexpr std::size_t kLogFileHeaderSize = 8;
// A record's fixed-width fields (everything but the tuple payload bytes).
constexpr std::size_t kLogFrameFixed =
    8 /*index*/ + 4 /*out_port*/ + 8 /*id*/ + 4 /*source_hau*/ +
    8 /*source_seq*/ + 8 /*edge_seq*/ + 8 /*event_time*/ + 8 /*wire_size*/ +
    1 /*has_payload*/;

/// The MSLG header every log starts with.
std::array<std::uint8_t, kLogFileHeaderSize> log_file_header();

/// One CRC-verified record payload inside the scanned buffer (valid while
/// the buffer lives); `index` is read without decoding the rest.
struct LogFrameView {
  std::uint64_t index = 0;
  const std::uint8_t* data = nullptr;
  std::uint32_t len = 0;
};

struct LogScan {
  /// Ended on a corrupt or incomplete frame (a torn tail) at `valid_bytes`.
  bool torn = false;
  std::uint64_t valid_bytes = 0;
  std::vector<LogFrameView> frames;
};

/// Verify a log's MSLG header, then each frame's CRC. Empty = a fresh log;
/// shorter than the header = a header torn at creation; a bad frame, or one
/// too short for a record, is a torn tail; a whole bad header is kDataLoss.
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

/// Read one whole source log and scan it into `view`. Missing = an empty
/// log; a bad header is kDataLoss; any other failure, a read shorter than the
/// file included, is kUnavailable: "could not look", never "nothing there".
Status read_source_log(const std::string& path,
                       const storage::DurableOptions& opts, LogView* view);

/// The log image keeping `scan`'s frames with index >= `bound`, each copied
/// with the CRC the scan verified.
std::vector<std::uint8_t> log_suffix_image(const LogScan& scan,
                                           std::uint64_t bound);

/// The one index-run rule (replay, truncation and the scrub use it). Indices
/// are assigned consecutively at append, so the frames from position `pos` on
/// are whole when they read `first`, first + 1, ... Returns the position of
/// the first frame that breaks the run: frames.size() when none does.
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

/// A log record rehydrated for replay.
struct LogRecord {
  std::uint64_t index = 0;
  int out_port = 0;
  core::Tuple tuple;
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
  /// records, consecutive indices, in one write before the batch is
  /// dispatched.
  void append(int op, int out_port, const core::Tuple* tuples, std::size_t n);
  void append(int op, int out_port, const core::Tuple& tuple) {
    append(op, out_port, &tuple, 1);
  }

  /// With nothing appending: read (and trim) every log without a cached
  /// view, cache the view for replay(), and continue each log's record
  /// indices past its last record and `boundaries[op]` (the committed tip's
  /// boundary). Returns the first failure; that log gets no view.
  Status scan(const std::vector<std::uint64_t>& boundaries);

  /// Commit-time truncation to `floor`, the committed epochs' lowest
  /// boundary: closes the append-failure window the floor passes, then keeps
  /// the records from `floor` on, only from a read holding every one of them
  /// (else ft.log.truncation_skipped, and the next commit retries). Every
  /// call that reads the log records its wall time in ft.log.truncate_ns.
  void truncate(int op, std::uint64_t floor);

  /// Decode source `op`'s records from `boundary` on out of the cached view.
  /// A record missing from that run is kDataLoss; records below the
  /// boundary are the snapshot's and are neither checked nor decoded.
  Status replay(int op, std::uint64_t boundary,
                std::vector<LogRecord>* out) const;

  /// Drop every cached view: the engine is about to append.
  void drop_views();

  /// kDataLoss while a log misses a record from a failed append that no
  /// truncation floor has passed yet.
  Status health() const;

 private:
  struct Log {
    /// failed_since value meaning "no uncovered append failure".
    static constexpr std::uint64_t kNoAppendFailure = ~std::uint64_t{0};

    std::mutex mu;
    std::string path;
    storage::AppendFile out;        // append handle, reopened on rewrite
    std::uint64_t begin_index = 0;  // first record still in the file
    std::uint64_t next_index = 0;   // index the next append gets
    /// Lowest index whose append failed (its tuple went downstream).
    std::uint64_t failed_since = kNoAppendFailure;
    /// The append's encode buffer, kept between batches for its capacity.
    std::vector<std::uint8_t> batch;
    /// The last scan()'s verified read, while nothing has changed the file.
    std::unique_ptr<LogView> view;
  };

  /// Read `log`, confirm a torn verdict with a second read and trim a
  /// confirmed tear; on success cache the view and open the handle.
  Status load(int op, Log& log);
  /// Replace the file with `scan`'s frames from `bound` on (handle closed).
  Status rewrite(Log& log, const LogScan& scan, std::uint64_t bound);

  storage::DurableOptions opts_;
  TupleCodec codec_;
  std::vector<std::unique_ptr<Log>> logs_;  // index = op; null if not a source
  Counter* m_torn_frames_;          // ft.log.torn_frames
  Counter* m_append_failures_;      // ft.log.append_failures
  Counter* m_truncations_skipped_;  // ft.log.truncation_skipped
  Counter* m_torn_unconfirmed_;     // ft.log.torn_unconfirmed
  HistogramMetric* m_append_ns_;     // ft.log.append_ns, per batch
  HistogramMetric* m_batch_tuples_;  // ft.log.batch_tuples, per batch
  HistogramMetric* m_truncate_ns_;   // ft.log.truncate_ns, per log read
  Counter* m_bytes_;                 // ft.log.bytes appended
};

}  // namespace ms::ft
