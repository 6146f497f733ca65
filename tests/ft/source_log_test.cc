// SourceLogSet on its own: one source log in a temp dir, no engine. Checks
// the append / scan / roll / truncate / replay round trip byte for byte, the
// index-run rule across segments (a hole past the boundary is data loss, one
// below it is not), the torn-tail trim and its two-read confirmation, the
// append-failure window that health() reports, the batch append (one frame
// and one write per batch, rolled back whole when it fails, with per-batch
// metrics), the seal and its failure, sealed segments checked against their
// names, the exact file reads and writes of a truncation and of a scan, and
// the batch frame's own damage: a tear inside a batch, a flipped bit in a
// sealed one or in a head batch with batches after it, a batch overlapping
// the one before it and a log in the previous (MSLG) format.
#include "ft/source_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "../testing/test_ops.h"
#include "failure/disk_fault.h"
#include "ft/epoch_store.h"
#include "ft/verify.h"

namespace ms::ft {
namespace {

namespace fs = std::filesystem;
using failure::DiskFaultInjector;
using ms::testing::IntPayload;

constexpr int kOp = 2;  // not 0, so a derived source_hau is checked

TupleCodec int_codec() {
  TupleCodec codec;
  codec.encode_payload = [](const core::Payload& p, BinaryWriter& w) {
    w.write<std::int64_t>(static_cast<const IntPayload&>(p).value);
  };
  codec.decode_payload =
      [](BinaryReader& r) -> std::shared_ptr<const core::Payload> {
    return std::make_shared<IntPayload>(r.read<std::int64_t>(), 64);
  };
  return codec;
}

/// Source kOp's tuple of value `v`, stamped as RtContext::emit stamps it.
core::Tuple tuple_of(std::int64_t v) {
  core::Tuple t;
  t.source_hau = kOp;
  t.source_seq = static_cast<std::uint64_t>(v) + 1;
  t.id = core::Tuple::make_id(t.source_hau, t.source_seq);
  t.event_time = SimTime::nanos(v);
  t.wire_size = 100 + v;  // not the payload's declared 64
  t.payload = std::make_shared<IntPayload>(v, 64);
  return t;
}

/// scan()'s committed boundaries: `boundary` for kOp, none for the rest.
std::vector<std::uint64_t> boundary_at(std::uint64_t boundary) {
  std::vector<std::uint64_t> out(kOp + 1, 0);
  out[kOp] = boundary;
  return out;
}

/// The tuples of values [from, to), as one batch.
std::vector<core::Tuple> batch_of(std::int64_t from, std::int64_t to) {
  std::vector<core::Tuple> out;
  for (std::int64_t v = from; v < to; ++v) out.push_back(tuple_of(v));
  return out;
}

void append_batch(SourceLogSet& logs, std::int64_t from, std::int64_t to,
                  int port = 0) {
  const std::vector<core::Tuple> batch = batch_of(from, to);
  logs.append(kOp, port, batch.data(), batch.size());
}

/// One source log under a fresh directory. open() builds a new SourceLogSet
/// over it, as a restarted process would.
struct LogDir {
  explicit LogDir(const std::string& name)
      : dir((fs::temp_directory_path() / name).string()),
        path(source_log_path(dir, kOp)) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }

  /// A fresh SourceLogSet, scanned with no committed boundary.
  SourceLogSet& open(storage::FaultInjector* faults = nullptr) {
    logs = std::make_unique<SourceLogSet>(
        dir, std::vector<int>{kOp}, storage::DurableOptions{sync, faults},
        int_codec(), metrics);
    scanned = logs->scan({});
    return *logs;
  }

  /// open(), then append the values [from, to) as batches of one record.
  SourceLogSet& append(std::int64_t from, std::int64_t to,
                       storage::FaultInjector* faults = nullptr) {
    SourceLogSet& set = open(faults);
    set.drop_views();
    for (std::int64_t v = from; v < to; ++v) {
      append_batch(set, v, v + 1, static_cast<int>(v % 2));
    }
    return set;
  }

  std::vector<std::uint8_t> bytes() const { return bytes_of(path); }

  static std::vector<std::uint8_t> bytes_of(const std::string& file) {
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(storage::read_raw(file, storage::ArtifactKind::kSourceLog,
                                  storage::DurableOptions{}, &out)
                    .is_ok());
    return out;
  }

  /// Source op kOp's sealed segment holding records first..last.
  std::string sealed(std::uint64_t first, std::uint64_t last) const {
    return source_segment_path(dir, kOp, first, last);
  }

  /// Every file name in the directory.
  std::set<std::string> files() const {
    std::set<std::string> out;
    for (const auto& e : fs::directory_iterator(dir)) {
      out.insert(e.path().filename().string());
    }
    return out;
  }

  std::int64_t count(const std::string& name) {
    return metrics.counter(name)->value();
  }

  std::string dir;
  std::string path;
  storage::SyncMode sync = storage::SyncMode::kNone;
  MetricsRegistry metrics;
  std::unique_ptr<SourceLogSet> logs;
  Status scanned = Status::ok();
};

/// The record indices a scan's batches hold, in file order.
std::vector<std::uint64_t> indices(const LogScan& scan) {
  std::vector<std::uint64_t> out;
  for (const LogFrameView& f : scan.frames) {
    for (std::uint64_t i = f.first; i < f.end(); ++i) out.push_back(i);
  }
  return out;
}

/// The record indices replayed batches hold, in replay order.
std::vector<std::uint64_t> indices(const std::vector<LogBatch>& batches) {
  std::vector<std::uint64_t> out;
  for (const LogBatch& b : batches) {
    for (std::size_t k = 0; k < b.tuples.size(); ++k) {
      out.push_back(b.first + k);
    }
  }
  return out;
}

/// Write `bytes` over `path`.
void overwrite(const std::string& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

LogScan scan_of(const std::vector<std::uint8_t>& bytes) {
  auto scan = scan_log_bytes(bytes.data(), bytes.size(), "log");
  EXPECT_TRUE(scan.is_ok()) << scan.status().to_string();
  return scan.is_ok() ? std::move(scan).value() : LogScan{};
}

TEST(SourceLogTest, AppendScanTruncateReplayRoundTrip) {
  LogDir d("ms_slog_roundtrip");
  d.append(0, 10);
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  const std::vector<std::uint8_t> before = d.bytes();
  const LogScan scan = scan_of(before);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(indices(scan), (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7,
                                                       8, 9}));

  // A restart replays every field of the records past the boundary, one
  // batch per frame, the fields the format leaves out derived.
  SourceLogSet& logs = d.open();
  ASSERT_TRUE(d.scanned.is_ok());
  std::vector<LogBatch> records;
  ASSERT_TRUE(logs.replay(kOp, 3, &records).is_ok());
  ASSERT_EQ(records.size(), 7u);
  for (std::size_t k = 0; k < records.size(); ++k) {
    const auto v = static_cast<std::int64_t>(3 + k);
    const core::Tuple want = tuple_of(v);
    EXPECT_EQ(records[k].first, static_cast<std::uint64_t>(v));
    EXPECT_EQ(records[k].port, static_cast<int>(v % 2));
    ASSERT_EQ(records[k].tuples.size(), 1u);
    const core::Tuple& got = records[k].tuples[0];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.source_hau, want.source_hau);
    EXPECT_EQ(got.source_seq, want.source_seq);
    EXPECT_EQ(got.edge_seq, 0u);
    EXPECT_EQ(got.event_time, want.event_time);
    EXPECT_EQ(got.wire_size, want.wire_size);
    const auto* p = got.payload_as<IntPayload>();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->value, v);
  }

  // A floor inside the head seals it: renamed whole, each byte as the
  // appends wrote it, behind a fresh empty head. The truncation to that
  // floor keeps it, since records 4..9 are past the floor.
  logs.drop_views();
  logs.roll(kOp, 4);
  logs.truncate(kOp, 4);
  EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.0-9.log",
                                              "source_2.log"}));
  EXPECT_EQ(LogDir::bytes_of(d.sealed(0, 9)), before);
  EXPECT_EQ(fs::file_size(d.path), 0u);

  // Appends continue the run in the new head; a restart replays it across
  // both segments.
  append_batch(logs, 10, 11);
  EXPECT_EQ(indices(scan_of(d.bytes())), (std::vector<std::uint64_t>{10}));
  SourceLogSet& again = d.open();
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  ASSERT_TRUE(again.replay(kOp, 4, &records).is_ok());
  EXPECT_EQ(indices(records),
            (std::vector<std::uint64_t>{4, 5, 6, 7, 8, 9, 10}));

  // A floor past the sealed segment unlinks it; the head stays.
  again.drop_views();
  again.truncate(kOp, 10);
  EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.log"}));
  EXPECT_EQ(d.count("ft.log.segments_unlinked"), 1);
}

TEST(SourceLogTest, HolePastTheBoundaryIsDataLossBelowItIsNot) {
  LogDir d("ms_slog_hole");
  DiskFaultInjector faults;
  DiskFaultInjector::Options sixth;
  sixth.occurrence = 6;  // the append of record 5
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kError, 0, sixth);
  d.append(0, 10, &faults);
  EXPECT_EQ(faults.injected(), 1);
  EXPECT_EQ(d.count("ft.log.append_failures"), 1);

  SourceLogSet& logs = d.open();
  ASSERT_TRUE(d.scanned.is_ok());
  std::vector<LogBatch> records;
  Status st = logs.replay(kOp, 0, &records);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_NE(st.message().find("missing record 5"), std::string::npos)
      << st.message();
  // The first record past the boundary is the hole.
  EXPECT_EQ(logs.replay(kOp, 5, &records).code(), StatusCode::kDataLoss);
  // Below the boundary the snapshot holds the lost record.
  ASSERT_TRUE(logs.replay(kOp, 6, &records).is_ok());
  EXPECT_EQ(indices(records), (std::vector<std::uint64_t>{6, 7, 8, 9}));

  // The offline scrub applies the same rule to the whole run.
  const ScrubReport report = scrub_checkpoint_dir(d.dir);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].detail.find("records 5..5 missing"),
            std::string::npos)
      << report.issues[0].detail;

  // A committed boundary past the last record moves the cursors past it:
  // the appends just before that cut failed, and the engine resumes there.
  ASSERT_TRUE(logs.scan(boundary_at(12)).is_ok());
  logs.drop_views();
  append_batch(logs, 12, 13);
  d.open();
  EXPECT_EQ(indices(scan_of(d.bytes())).back(), 12u);
}

TEST(SourceLogTest, TornTailIsTrimmedOnlyWhenTwoReadsAgree) {
  LogDir d("ms_slog_torn");
  d.append(0, 5);
  const std::vector<std::uint8_t> whole = d.bytes();

  // A flip in one read only: the second read is whole and the file stays.
  DiskFaultInjector faults;
  faults.arm_read(storage::ArtifactKind::kSourceLog,
                  storage::ReadFault::kBitFlip, (whole.size() - 3) * 8);
  SourceLogSet& logs = d.open(&faults);
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  EXPECT_EQ(faults.injected(), 1);
  EXPECT_EQ(d.count("ft.log.torn_unconfirmed"), 1);
  EXPECT_EQ(d.count("ft.log.torn_frames"), 0);
  EXPECT_EQ(d.bytes(), whole);
  std::vector<LogBatch> records;
  ASSERT_TRUE(logs.replay(kOp, 0, &records).is_ok());
  EXPECT_EQ(records.size(), 5u);

  // A real tear, which both reads see.
  {
    std::ofstream out(d.path, std::ios::binary | std::ios::app);
    out.write("\x30\x00\x00\x00\xde\xad", 6);
  }
  const std::vector<std::uint8_t> torn = d.bytes();
  // A trim that cannot be written leaves the file and the log unreadable.
  faults.clear();
  DiskFaultInjector::Options sticky;
  sticky.sticky = true;
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kError, 0, sticky);
  d.open(&faults);
  EXPECT_EQ(d.scanned.code(), StatusCode::kUnavailable)
      << d.scanned.to_string();
  EXPECT_EQ(d.bytes(), torn);
  EXPECT_EQ(d.count("ft.log.torn_frames"), 0);

  faults.clear();
  SourceLogSet& trimmed = d.open(&faults);
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  EXPECT_EQ(d.count("ft.log.torn_frames"), 1);
  EXPECT_EQ(d.bytes(), whole);
  ASSERT_TRUE(trimmed.replay(kOp, 0, &records).is_ok());
  EXPECT_EQ(records.size(), 5u);
}

TEST(SourceLogTest, FailedAppendIsRolledBackAndOpensTheHealthWindow) {
  LogDir d("ms_slog_failed");
  DiskFaultInjector faults;
  // The first write of a fresh log is record 0's frame; five bytes of it
  // land.
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kTorn, 5);
  SourceLogSet& logs = d.append(0, 1, &faults);
  EXPECT_EQ(faults.injected(), 1);
  EXPECT_EQ(fs::file_size(d.path), 0u) << "the torn write was not cut back";
  EXPECT_EQ(d.count("ft.log.append_failures"), 1);
  const Status health = logs.health();
  EXPECT_EQ(health.code(), StatusCode::kDataLoss);
  EXPECT_NE(health.message().find("from index 0"), std::string::npos)
      << health.message();

  // The next append starts the log again, and the run resumes behind the
  // lost record.
  for (std::int64_t v = 1; v < 4; ++v) append_batch(logs, v, v + 1);
  const LogScan scan = scan_of(d.bytes());
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(indices(scan), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(logs.health().code(), StatusCode::kDataLoss);
}

TEST(SourceLogTest, TruncationFloorPastTheFailureClosesTheWindow) {
  LogDir d("ms_slog_window");
  DiskFaultInjector faults;
  DiskFaultInjector::Options third;
  third.occurrence = 3;  // the append of record 2
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kTorn, 5, third);
  SourceLogSet& logs = d.append(0, 5, &faults);
  EXPECT_EQ(d.count("ft.log.append_failures"), 1);
  EXPECT_EQ(logs.health().code(), StatusCode::kDataLoss);

  // A floor at the lost record still needs it: the window stays open. With
  // no sealed segment the truncation touches no file.
  const std::vector<std::uint8_t> before = d.bytes();
  logs.truncate(kOp, 2);
  EXPECT_EQ(logs.health().code(), StatusCode::kDataLoss);
  EXPECT_EQ(d.bytes(), before);

  // A floor past it closes the window. The head, gap and all, is sealed
  // under the range of the frames it holds.
  logs.roll(kOp, 3);
  logs.truncate(kOp, 3);
  EXPECT_TRUE(logs.health().is_ok()) << logs.health().to_string();
  EXPECT_EQ(LogDir::bytes_of(d.sealed(0, 4)), before);
  EXPECT_EQ(indices(scan_of(before)), (std::vector<std::uint64_t>{0, 1, 3, 4}));
}

// A batch is one frame and one write: a tear inside it cuts the whole batch
// back, counts one failure, and leaves an eight-record gap that the next
// batch continues past and the scrub reports exactly.
TEST(SourceLogTest, TornBatchRollsBackWhole) {
  LogDir d("ms_slog_tornbatch");
  DiskFaultInjector faults;
  SourceLogSet& logs = d.append(0, 4, &faults);  // records 0..3, one each
  const auto before = fs::file_size(d.path);
  const auto frame = before / 4;  // one record each
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kTorn, 2 * frame + frame / 2);
  append_batch(logs, 4, 12);
  EXPECT_EQ(faults.injected(), 1);
  EXPECT_EQ(fs::file_size(d.path), before) << "the batch was not cut back";
  EXPECT_EQ(d.count("ft.log.append_failures"), 1);
  const Status health = logs.health();
  EXPECT_EQ(health.code(), StatusCode::kDataLoss);
  EXPECT_NE(health.message().find("from index 4"), std::string::npos)
      << health.message();

  append_batch(logs, 12, 20);
  EXPECT_EQ(indices(scan_of(d.bytes())),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 12, 13, 14, 15, 16, 17,
                                        18, 19}));
  const ScrubReport report = scrub_checkpoint_dir(d.dir);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].detail.find("records 4..11 missing"),
            std::string::npos)
      << report.issues[0].detail;
}

// Under SyncMode::kAlways a batch is durable only once fdatasync succeeds: a
// sync that fails after every byte landed is an append failure like a
// failed write — cut back, counted once, and open in health().
TEST(SourceLogTest, FailedSyncIsAnAppendFailure) {
  LogDir d("ms_slog_syncfail");
  d.sync = storage::SyncMode::kAlways;
  DiskFaultInjector faults;
  SourceLogSet& logs = d.open(&faults);
  logs.drop_views();
  append_batch(logs, 0, 3);
  const auto before = fs::file_size(d.path);
  faults.arm_write(storage::ArtifactKind::kSourceLog,
                   storage::WriteFault::kSyncError);
  append_batch(logs, 3, 8);
  EXPECT_EQ(faults.injected(), 1);
  EXPECT_EQ(d.count("ft.log.append_failures"), 1);
  EXPECT_EQ(fs::file_size(d.path), before) << "the batch was not cut back";
  const Status health = logs.health();
  EXPECT_EQ(health.code(), StatusCode::kDataLoss);
  EXPECT_NE(health.message().find("from index 3"), std::string::npos)
      << health.message();

  append_batch(logs, 8, 10);
  EXPECT_EQ(indices(scan_of(d.bytes())),
            (std::vector<std::uint64_t>{0, 1, 2, 8, 9}));
  EXPECT_EQ(d.count("ft.log.append_failures"), 1);
}

// One clock pair and one sample per batch, not per tuple; the byte counter
// adds the appended bytes, frame headers included.
TEST(SourceLogTest, BatchMetricsRecordEachBatchOnce) {
  LogDir d("ms_slog_metrics");
  SourceLogSet& logs = d.open();
  logs.drop_views();
  append_batch(logs, 0, 8);
  append_batch(logs, 8, 12);
  append_batch(logs, 12, 24);
  const LatencyHistogram batches =
      d.metrics.histogram("ft.log.batch_tuples")->snapshot();
  EXPECT_EQ(batches.count(), 3);
  EXPECT_EQ(batches.mean().ns() * batches.count(), 24);  // 8 + 4 + 12
  EXPECT_EQ(batches.min().ns(), 4);
  EXPECT_EQ(batches.max().ns(), 12);
  EXPECT_EQ(d.metrics.histogram("ft.log.append_ns")->snapshot().count(), 3);
  EXPECT_EQ(d.count("ft.log.bytes"),
            static_cast<std::int64_t>(fs::file_size(d.path)));
  EXPECT_EQ(indices(scan_of(d.bytes())).size(), 24u);
}

// One ft.log.truncate_ns sample per truncation that unlinks, however many
// segments it unlinks (ft.log.segments_unlinked counts them); a floor that
// passes no sealed segment whole records nothing.
TEST(SourceLogTest, TruncateNsRecordsOneSamplePerUnlinkPass) {
  LogDir d("ms_slog_truncate_ns");
  SourceLogSet& logs = d.append(0, 3);
  for (std::int64_t v = 3; v < 12; v += 3) {  // seals 0-2, 3-5, 6-8
    logs.roll(kOp, static_cast<std::uint64_t>(v));
    append_batch(logs, v, v + 3);
  }
  HistogramMetric* truncate_ns = d.metrics.histogram("ft.log.truncate_ns");
  logs.truncate(kOp, 2);  // passes no segment whole
  EXPECT_EQ(truncate_ns->snapshot().count(), 0);
  logs.truncate(kOp, 3);
  logs.truncate(kOp, 9);
  EXPECT_EQ(truncate_ns->snapshot().count(), 2);
  EXPECT_EQ(d.count("ft.log.segments_unlinked"), 3);
  EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.log"}));
  EXPECT_EQ(indices(scan_of(d.bytes())), (std::vector<std::uint64_t>{9, 10,
                                                                     11}));

  logs.truncate(kOp, 9);
  logs.truncate(kOp, 4);
  EXPECT_EQ(truncate_ns->snapshot().count(), 2);
}

// A commit seals the head once the floor has reached its first record: a
// head still wholly newer than the floor, or an empty one, stays. Each seal
// is one ft.log.roll_ns sample.
TEST(SourceLogTest, RollSealsTheHeadOnceTheFloorReachesIt) {
  LogDir d("ms_slog_roll");
  SourceLogSet& logs = d.open();
  logs.drop_views();
  logs.roll(kOp, 5);  // nothing appended yet
  append_batch(logs, 0, 4);
  logs.roll(kOp, 0);  // the floor stands at record 0, the head's first
  EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.0-3.log",
                                              "source_2.log"}));
  EXPECT_EQ(d.metrics.histogram("ft.log.roll_ns")->snapshot().count(), 1);
  logs.roll(kOp, 9);  // the fresh head is empty

  append_batch(logs, 4, 8);
  const std::vector<std::uint8_t> head = d.bytes();
  logs.roll(kOp, 3);  // the head starts at 4, past the floor
  EXPECT_EQ(d.files().size(), 2u);
  logs.roll(kOp, 4);
  EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.0-3.log",
                                              "source_2.4-7.log",
                                              "source_2.log"}));
  EXPECT_EQ(LogDir::bytes_of(d.sealed(4, 7)), head);
  EXPECT_EQ(fs::file_size(d.path), 0u);
  EXPECT_EQ(d.metrics.histogram("ft.log.roll_ns")->snapshot().count(), 2);
  EXPECT_EQ(d.count("ft.log.roll_failures"), 0);
}

// A seal that fails keeps the head as it is, counts ft.log.roll_failures,
// and the next commit's seal takes it whole: an injected write error, and
// under SyncMode::kCommit a failed fdatasync.
TEST(SourceLogTest, FailedRollKeepsTheHeadAndTheNextCommitRetries) {
  for (const auto fault :
       {storage::WriteFault::kError, storage::WriteFault::kSyncError}) {
    SCOPED_TRACE(static_cast<int>(fault));
    LogDir d("ms_slog_rollfail");
    d.sync = storage::SyncMode::kCommit;
    DiskFaultInjector faults;
    SourceLogSet& logs = d.append(0, 4, &faults);
    faults.arm_write(storage::ArtifactKind::kSourceLog, fault);
    logs.roll(kOp, 2);
    EXPECT_EQ(faults.injected(), 1);
    EXPECT_EQ(d.count("ft.log.roll_failures"), 1);
    EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.log"}));

    append_batch(logs, 4, 6);
    const std::vector<std::uint8_t> head = d.bytes();
    logs.roll(kOp, 2);
    EXPECT_EQ(d.count("ft.log.roll_failures"), 1);
    EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.0-5.log",
                                                "source_2.log"}));
    EXPECT_EQ(LogDir::bytes_of(d.sealed(0, 5)), head);
  }
}

// A seal syncs the head without the log's mutex while the source appends,
// then takes it for the rename and the handle swap; a truncation unlinks
// without it. Appends racing a run of seals and unlinks land in exactly one
// segment each, in order: a restart replays the whole run from the last
// floor and the scrub finds every segment's name true.
TEST(SourceLogTest, RollsRacingAppendsKeepTheRunWhole) {
  LogDir d("ms_slog_race");
  d.sync = storage::SyncMode::kCommit;
  SourceLogSet& logs = d.open();
  logs.drop_views();
  constexpr std::int64_t kBatches = 200;
  constexpr std::int64_t kBatch = 8;
  constexpr std::int64_t kTotal = kBatches * kBatch;
  std::atomic<std::int64_t> appended{0};
  std::thread appender([&logs, &appended] {
    for (std::int64_t v = 0; v < kTotal; v += kBatch) {
      append_batch(logs, v, v + kBatch);
      appended.store(v + kBatch);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Each roll is followed by a truncation to the floor before it, as a
  // commit does, so unlinks race the appends too.
  std::uint64_t floor = 0;
  while (appended.load() < kTotal) {
    const auto next = static_cast<std::uint64_t>(appended.load());
    logs.roll(kOp, next);
    logs.truncate(kOp, floor);
    floor = next;
  }
  appender.join();
  logs.roll(kOp, kTotal);
  EXPECT_EQ(d.count("ft.log.roll_failures"), 0);
  EXPECT_EQ(d.count("ft.log.append_failures"), 0);
  EXPECT_GT(d.count("ft.log.segments_unlinked"), 0);
  EXPECT_GE(d.files().size(), 2u);

  SourceLogSet& again = d.open();
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  std::vector<LogBatch> records;
  ASSERT_TRUE(again.replay(kOp, floor, &records).is_ok());
  const std::vector<std::uint64_t> replayed = indices(records);
  ASSERT_EQ(replayed.size(), static_cast<std::size_t>(kTotal) - floor);
  for (std::size_t k = 0; k < replayed.size(); ++k) {
    ASSERT_EQ(replayed[k], floor + k);
  }
  const ScrubReport report = scrub_checkpoint_dir(d.dir);
  EXPECT_TRUE(report.clean()) << report.issues.front().path << ": "
                              << report.issues.front().detail;
  ASSERT_EQ(report.logs.size(), 1u);
  EXPECT_EQ(report.logs[0].segments, d.files().size());
}

/// Counts every source-log read and write hook call; injects nothing.
class LogIoCounter final : public storage::FaultInjector {
 public:
  storage::WriteFaultSpec write_fault(const std::string&,
                                      storage::ArtifactKind kind) override {
    if (kind == storage::ArtifactKind::kSourceLog) ++writes;
    return {};
  }
  storage::ReadFaultSpec read_fault(const std::string& path,
                                    storage::ArtifactKind kind) override {
    if (kind == storage::ArtifactKind::kSourceLog) read_paths.insert(path);
    if (kind == storage::ArtifactKind::kSourceLog) ++reads;
    return {};
  }
  int reads = 0;
  int writes = 0;
  std::set<std::string> read_paths;
};

// The exact I/O of the two commit-time and restart-time paths. A truncation
// unlinks: it reads and writes no log. A scan reads the head and only the
// sealed segments at or past the boundary — in the shape of a crash after a
// quiescent commit, the head alone — and a replay from an older boundary
// reads the older segments it needs, once.
TEST(SourceLogTest, TruncationAndScanReadOnlyWhatTheyNeed) {
  LogDir d("ms_slog_io");
  SourceLogSet& logs = d.append(0, 10);
  for (std::int64_t v = 10; v < 40; v += 10) {  // 0-9, 10-19, 20-29 sealed
    logs.roll(kOp, static_cast<std::uint64_t>(v));
    append_batch(logs, v, v + 10);
  }
  LogIoCounter io;
  d.open(&io);
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  EXPECT_EQ(io.reads, 4) << "no boundary: every segment is read";

  io.reads = 0;
  io.read_paths.clear();
  SourceLogSet logs2(d.dir, {kOp},
                     storage::DurableOptions{storage::SyncMode::kNone, &io},
                     int_codec(), d.metrics);
  // The head starts at the boundary.
  ASSERT_TRUE(logs2.scan(boundary_at(30)).is_ok());
  EXPECT_EQ(io.reads, 1);
  EXPECT_EQ(io.read_paths, (std::set<std::string>{d.path}));
  // The cached view is still the file's.
  ASSERT_TRUE(logs2.scan(boundary_at(30)).is_ok());
  EXPECT_EQ(io.reads, 1);
  std::vector<LogBatch> records;
  ASSERT_TRUE(logs2.replay(kOp, 10, &records).is_ok());
  EXPECT_EQ(io.reads, 3);
  EXPECT_EQ(io.read_paths, (std::set<std::string>{d.path, d.sealed(10, 19),
                                                  d.sealed(20, 29)}));
  ASSERT_EQ(records.size(), 3u);  // one per batch
  const std::vector<std::uint64_t> replayed = indices(records);
  ASSERT_EQ(replayed.size(), 30u);
  EXPECT_EQ(replayed.front(), 10u);
  EXPECT_EQ(replayed.back(), 39u);

  logs2.drop_views();
  io.reads = io.writes = 0;
  logs2.truncate(kOp, 25);
  EXPECT_EQ(io.reads, 0);
  EXPECT_EQ(io.writes, 0);
  EXPECT_EQ(d.files(), (std::set<std::string>{"source_2.20-29.log",
                                              "source_2.log"}));
}

// A sealed segment is whole and is what its name says: one whose frames do
// not span its name's range, or whose range overlaps another's, is
// kDataLoss. A gap between two segments is kDataLoss only past the replay
// boundary, like a gap inside one.
TEST(SourceLogTest, SealedSegmentsAreCheckedAgainstTheirNames) {
  LogDir d("ms_slog_names");
  SourceLogSet& logs = d.append(0, 5);
  logs.roll(kOp, 5);
  append_batch(logs, 5, 10);
  logs.roll(kOp, 10);
  append_batch(logs, 10, 12);
  std::vector<LogBatch> records;

  // Renamed to claim a range its frames do not hold.
  fs::rename(d.sealed(5, 9), d.sealed(5, 8));
  SourceLogSet& misnamed = d.open();
  EXPECT_EQ(d.scanned.code(), StatusCode::kDataLoss) << d.scanned.to_string();
  EXPECT_NE(d.scanned.message().find(d.sealed(5, 8)), std::string::npos);
  (void)misnamed;

  // Overlapping ranges.
  fs::copy_file(d.sealed(0, 4), d.sealed(4, 4));
  fs::rename(d.sealed(5, 8), d.sealed(5, 9));
  d.open();
  EXPECT_EQ(d.scanned.code(), StatusCode::kDataLoss) << d.scanned.to_string();
  fs::remove(d.sealed(4, 4));

  // A gap between segments: records 5..9 are gone.
  fs::remove(d.sealed(5, 9));
  SourceLogSet& gap = d.open();
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  const Status st = gap.replay(kOp, 3, &records);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  EXPECT_NE(st.message().find("missing record 5"), std::string::npos);
  ASSERT_TRUE(gap.replay(kOp, 10, &records).is_ok());
  EXPECT_EQ(indices(records), (std::vector<std::uint64_t>{10, 11}));
  const ScrubReport report = scrub_checkpoint_dir(d.dir);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].path, d.path);
  EXPECT_NE(report.issues[0].detail.find("records 5..9 missing between "
                                         "segments"),
            std::string::npos)
      << report.issues[0].detail;
}

// --- batch frames ------------------------------------------------------------

// A crash mid-append leaves the head's last batch cut short: the scan trims
// the head to the last whole batch, never to a record inside the cut one,
// and appends continue the run behind it.
TEST(SourceLogTest, BatchTornMidFrameTrimsToTheLastWholeBatch) {
  LogDir d("ms_slog_batch_torn");
  SourceLogSet& logs = d.open();
  logs.drop_views();
  append_batch(logs, 0, 8);
  const std::vector<std::uint8_t> whole = d.bytes();
  append_batch(logs, 8, 16);
  const std::vector<std::uint8_t> both = d.bytes();
  {
    std::ofstream out(d.path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(both.data()),
              static_cast<std::streamsize>((whole.size() + both.size()) / 2));
  }

  SourceLogSet& trimmed = d.open();
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  EXPECT_EQ(d.count("ft.log.torn_frames"), 1);
  EXPECT_EQ(d.bytes(), whole);
  std::vector<LogBatch> batches;
  ASSERT_TRUE(trimmed.replay(kOp, 0, &batches).is_ok());
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(indices(batches), indices(scan_of(whole)));

  trimmed.drop_views();
  append_batch(trimmed, 8, 12);
  EXPECT_EQ(indices(scan_of(d.bytes())),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

// One CRC covers a whole batch, so a bit flipped anywhere in a sealed batch
// fails it; a sealed segment was whole when it was renamed, so that is
// damage: kDataLoss, never a trim, and the file stays as it is.
TEST(SourceLogTest, BatchBitFlipInASealedSegmentIsDataLoss) {
  LogDir d("ms_slog_batch_flip");
  SourceLogSet& logs = d.open();
  logs.drop_views();
  append_batch(logs, 0, 8);
  append_batch(logs, 8, 16);
  logs.roll(kOp, 0);
  std::vector<std::uint8_t> bytes = LogDir::bytes_of(d.sealed(0, 15));
  const LogScan scan = scan_of(bytes);
  ASSERT_EQ(scan.frames.size(), 2u);
  const std::size_t victim = static_cast<std::size_t>(
      scan.frames[0].records - bytes.data() + scan.frames[0].size / 2);
  bytes[victim] ^= 0x10;
  overwrite(d.sealed(0, 15), bytes);

  d.open();
  EXPECT_EQ(d.scanned.code(), StatusCode::kDataLoss) << d.scanned.to_string();
  EXPECT_NE(d.scanned.message().find(d.sealed(0, 15)), std::string::npos)
      << d.scanned.message();
  EXPECT_EQ(d.count("ft.log.torn_frames"), 0);
  EXPECT_EQ(LogDir::bytes_of(d.sealed(0, 15)), bytes);
}

// A batch whose range overlaps the batch before it breaks the index run:
// both frames verify, but replay from before the overlap is kDataLoss and
// the scrub reports the break.
TEST(SourceLogTest, BatchOverlappingThePreviousIsDataLoss) {
  LogDir d("ms_slog_batch_overlap");
  SourceLogSet& logs = d.open();
  logs.drop_views();
  append_batch(logs, 0, 8);
  std::vector<std::uint8_t> bytes = d.bytes();

  // A frame for records 4..7, written by a log whose cursor a committed
  // boundary of 4 set, appended behind the one for 0..7.
  LogDir other("ms_slog_batch_overlap_src");
  SourceLogSet& at4 = other.open();
  ASSERT_TRUE(at4.scan(boundary_at(4)).is_ok());
  at4.drop_views();
  append_batch(at4, 4, 8);
  const std::vector<std::uint8_t> frame = other.bytes();
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  overwrite(d.path, bytes);
  const LogScan scan = scan_of(bytes);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[1].first, 4u);

  SourceLogSet& overlapped = d.open();
  ASSERT_TRUE(d.scanned.is_ok()) << d.scanned.to_string();
  std::vector<LogBatch> batches;
  const Status st = overlapped.replay(kOp, 0, &batches);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.to_string();
  const ScrubReport report = scrub_checkpoint_dir(d.dir);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_NE(report.issues[0].detail.find("record 4 out of order after 7"),
            std::string::npos)
      << report.issues[0].detail;
  ASSERT_EQ(report.logs.size(), 1u);
  EXPECT_EQ(report.logs[0].batches, 2u);
  EXPECT_EQ(report.logs[0].records, 12u);
}

// A flipped bit in the first of five head batches, in its payload or in its
// frame header, is damage, not a tear: the batches after it still verify,
// and records past it went downstream. Both reads agree, so the scan is
// kDataLoss and the head stays byte for byte — no trim, no view to replay
// an empty run from. The scrub names the same file.
TEST(SourceLogTest, DamagedHeadBatchIsDataLossAndKeepsTheFile) {
  for (const std::size_t byte :
       {kLogBatchHeaderSize + 3, std::size_t{10}}) {  // a record, the length
    SCOPED_TRACE(byte);
    LogDir d("ms_slog_head_damage");
    d.append(0, 5);
    std::vector<std::uint8_t> bytes = d.bytes();
    ASSERT_EQ(scan_of(bytes).frames.size(), 5u);
    bytes[byte] ^= 0x08;
    overwrite(d.path, bytes);

    EXPECT_EQ(scan_log_bytes(bytes.data(), bytes.size(), "log").status().code(),
              StatusCode::kDataLoss);
    d.open();
    EXPECT_EQ(d.scanned.code(), StatusCode::kDataLoss) << d.scanned.to_string();
    EXPECT_NE(d.scanned.message().find(d.path), std::string::npos)
        << d.scanned.message();
    EXPECT_EQ(d.count("ft.log.torn_frames"), 0);
    EXPECT_EQ(d.count("ft.log.torn_unconfirmed"), 0);
    EXPECT_EQ(d.bytes(), bytes);
    const ScrubReport report = scrub_checkpoint_dir(d.dir);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].path, d.path);
  }
}

// A log in the previous format — an 8-byte MSLG header, then a [len][crc]
// frame per batch — does not open with the MSDF magic: kDataLoss, with the
// file left as it is, never a tear at byte 0 to trim it away. There is one
// durable format and no compat path.
TEST(SourceLogTest, PreviousFormatLogIsDataLossAndKeepsTheFile) {
  LogDir d("ms_slog_mslg");
  d.append(0, 4);
  const std::vector<std::uint8_t> current = d.bytes();
  std::vector<std::uint8_t> bytes = {'M', 'S', 'L', 'G', 2, 0, 0, 0};
  for (const LogFrameView& f : scan_of(current).frames) {
    // The previous frame's CRC covered its batch: [first][n][port] and the
    // records, the same bytes as this format's payload.
    const std::uint8_t* batch =
        f.records - (kLogBatchHeaderSize - storage::kArtifactHeaderSize);
    const auto len = static_cast<std::uint32_t>(f.records + f.size - batch);
    const std::uint32_t crc = storage::crc32c(batch, len);
    bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t*>(&len),
                 reinterpret_cast<const std::uint8_t*>(&len) + 4);
    bytes.insert(bytes.end(), reinterpret_cast<const std::uint8_t*>(&crc),
                 reinterpret_cast<const std::uint8_t*>(&crc) + 4);
    bytes.insert(bytes.end(), batch, batch + len);
  }
  overwrite(d.path, bytes);
  EXPECT_EQ(scan_log_bytes(bytes.data(), bytes.size(), "mslg").status().code(),
            StatusCode::kDataLoss);
  d.open();
  EXPECT_EQ(d.scanned.code(), StatusCode::kDataLoss) << d.scanned.to_string();
  EXPECT_EQ(d.count("ft.log.torn_frames"), 0);
  EXPECT_EQ(d.bytes(), bytes);
}

}  // namespace
}  // namespace ms::ft
