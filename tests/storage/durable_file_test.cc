// The framed-artifact layer in isolation: CRC32C correctness (known-answer
// vectors, hw/sw agreement), frame round-trips per artifact kind, the one
// frame parser's tear/damage rule over a run of frames, and the full
// corruption taxonomy — every way the on-disk bytes can differ from the
// written bytes must come back as kDataLoss (definitive) or kUnavailable
// (retryable), never as a clean read of wrong bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "failure/disk_fault.h"
#include "storage/durable_file.h"

namespace ms::storage {
namespace {

namespace fs = std::filesystem;
using ms::failure::DiskFaultInjector;
using ms::failure::flip_bit_in_file;
using ms::failure::truncate_file_to;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 3));
  }
  return out;
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerVectors) {
  // The canonical CRC32C check value (RFC 3720 / Castagnoli).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  // 32 zero bytes — a second published vector, sensitive to reflection bugs.
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, SeedChainsAcrossSplitBuffers) {
  const auto data = payload(1037);
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (const std::size_t cut : {std::size_t{1}, std::size_t{8},
                                std::size_t{512}, data.size() - 1}) {
    const std::uint32_t first = crc32c(data.data(), cut);
    EXPECT_EQ(crc32c(data.data() + cut, data.size() - cut, first), whole)
        << "split at " << cut;
  }
}

// --- framing ---------------------------------------------------------------

TEST(DurableFileTest, FrameRoundTripsEveryKind) {
  for (const ArtifactKind kind :
       {ArtifactKind::kCheckpoint, ArtifactKind::kDelta, ArtifactKind::kManifest,
        ArtifactKind::kSourceLog}) {
    const auto data = payload(257);
    const auto framed = frame_artifact(kind, data.data(), data.size());
    ASSERT_EQ(framed.size(), kArtifactHeaderSize + data.size());
    std::vector<std::uint8_t> out;
    const Status st = unframe_artifact("mem", framed, kind, &out);
    ASSERT_TRUE(st.is_ok()) << artifact_kind_name(kind) << ": "
                            << st.to_string();
    EXPECT_EQ(out, data);
  }
}

TEST(DurableFileTest, EmptyPayloadRoundTrips) {
  const auto framed = frame_artifact(ArtifactKind::kCheckpoint, nullptr, 0);
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_TRUE(unframe_artifact("mem", framed, ArtifactKind::kCheckpoint, &out)
                  .is_ok());
  EXPECT_TRUE(out.empty());
}

TEST(DurableFileTest, EveryCorruptionClassIsDataLoss) {
  const auto data = payload(300);
  const auto framed =
      frame_artifact(ArtifactKind::kCheckpoint, data.data(), data.size());
  std::vector<std::uint8_t> out;

  // Wrong kind: the frame is intact but it is not the artifact asked for.
  EXPECT_EQ(unframe_artifact("mem", framed, ArtifactKind::kDelta, &out).code(),
            StatusCode::kDataLoss);

  // Truncated mid-payload: length field promises more bytes than exist.
  auto torn = framed;
  torn.resize(framed.size() - 17);
  EXPECT_EQ(
      unframe_artifact("mem", torn, ArtifactKind::kCheckpoint, &out).code(),
      StatusCode::kDataLoss);

  // No magic: a file written without the frame (the pre-checksum layout)
  // carries nothing to verify it by.
  EXPECT_EQ(unframe_artifact("mem", bytes_of("state written before framing"),
                             ArtifactKind::kCheckpoint, &out)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(unframe_artifact("mem", data, ArtifactKind::kCheckpoint, &out)
                .code(),
            StatusCode::kDataLoss);

  // Truncated mid-header.
  auto stub = framed;
  stub.resize(kArtifactHeaderSize / 2);
  EXPECT_EQ(
      unframe_artifact("mem", stub, ArtifactKind::kCheckpoint, &out).code(),
      StatusCode::kDataLoss);

  // Every single-bit flip anywhere in header or payload must be caught.
  for (const std::size_t byte :
       {std::size_t{5}, std::size_t{11}, std::size_t{17},
        kArtifactHeaderSize + 0, kArtifactHeaderSize + 150,
        framed.size() - 1}) {
    auto flipped = framed;
    flipped[byte] ^= 0x10;
    EXPECT_EQ(
        unframe_artifact("mem", flipped, ArtifactKind::kCheckpoint, &out)
            .code(),
        StatusCode::kDataLoss)
        << "bit flip in byte " << byte << " not detected";
  }

  // Trailing garbage after the payload (a torn *over*write).
  auto padded = framed;
  padded.push_back(0xAB);
  EXPECT_EQ(
      unframe_artifact("mem", padded, ArtifactKind::kCheckpoint, &out).code(),
      StatusCode::kDataLoss);
}

// Consecutive frames of one kind, as a source log holds them. Past the last
// whole frame, bytes in which no verifying header begins are a tear; a bad
// frame with a verifying header after it, or a range that does not open
// with the magic, is damage.
TEST(DurableFileTest, ScanFramesTellsATearFromDamage) {
  std::vector<std::uint8_t> run;
  std::vector<std::size_t> starts;
  for (const std::size_t n : {std::size_t{40}, std::size_t{0}, std::size_t{77},
                              std::size_t{13}}) {
    starts.push_back(run.size());
    const auto frame =
        frame_artifact(ArtifactKind::kSourceLog, payload(n).data(), n);
    run.insert(run.end(), frame.begin(), frame.end());
  }
  const auto scan = [](const std::vector<std::uint8_t>& bytes) {
    return scan_frames(bytes.data(), bytes.size(), ArtifactKind::kSourceLog,
                       "mem");
  };

  auto whole = scan(run);
  ASSERT_TRUE(whole.is_ok()) << whole.status().to_string();
  EXPECT_FALSE(whole.value().torn);
  EXPECT_EQ(whole.value().valid_bytes, run.size());
  ASSERT_EQ(whole.value().frames.size(), 4u);
  EXPECT_EQ(whole.value().frames[2].size, 77u);
  EXPECT_EQ(whole.value().frames[2].payload,
            run.data() + starts[2] + kArtifactHeaderSize);
  EXPECT_TRUE(scan({}).is_ok());
  EXPECT_TRUE(scan({}).value().frames.empty());

  // A write cut short anywhere in the last frame, or a prefix of the first
  // frame's magic, is a tear at the last whole frame.
  for (const std::size_t cut :
       {starts[3] + 1, starts[3] + kArtifactHeaderSize - 1,
        starts[3] + kArtifactHeaderSize + 5, std::size_t{3}}) {
    auto torn = run;
    torn.resize(cut);
    const auto got = scan(torn);
    ASSERT_TRUE(got.is_ok()) << "cut at " << cut << ": "
                             << got.status().to_string();
    EXPECT_TRUE(got.value().torn) << "cut at " << cut;
    EXPECT_EQ(got.value().valid_bytes, cut == 3 ? 0 : starts[3])
        << "cut at " << cut;
  }
  // Garbage past the last frame holds no header: a tear too.
  auto garbage = run;
  garbage.insert(garbage.end(), {0xff, 0xff, 0xff, 0xff, 0xde, 0xad});
  ASSERT_TRUE(scan(garbage).is_ok());
  EXPECT_TRUE(scan(garbage).value().torn);

  // A flipped bit in any frame but the last, header or payload: the next
  // frame's header still verifies, so it is damage, never a tear.
  for (const std::size_t byte :
       {starts[0] + 1, starts[0] + 9, starts[0] + kArtifactHeaderSize + 3,
        starts[1] + 6, starts[2] + kArtifactHeaderSize + 76}) {
    auto flipped = run;
    flipped[byte] ^= 0x04;
    EXPECT_EQ(scan(flipped).status().code(), StatusCode::kDataLoss)
        << "byte " << byte;
  }
  // A range that does not open with the magic is damage even with no frame
  // after it.
  EXPECT_EQ(scan(bytes_of("MSLG, and what followed it")).status().code(),
            StatusCode::kDataLoss);
  // Another kind's frame is not a frame of this kind.
  const auto other = frame_artifact(ArtifactKind::kManifest, "x", 1);
  auto mixed = run;
  mixed.insert(mixed.begin(), other.begin(), other.end());
  EXPECT_EQ(scan(mixed).status().code(), StatusCode::kDataLoss);
}

// --- durable I/O on real files ---------------------------------------------

TEST(DurableFileTest, AtomicWriteReadsBackAndLeavesNoTempFile) {
  const std::string dir = fresh_dir("ms_durable_atomic");
  const std::string path = dir + "/MANIFEST";
  const auto data = payload(64);
  const DurableOptions opts{SyncMode::kCommit, nullptr};
  ASSERT_TRUE(write_artifact_atomic(path, ArtifactKind::kManifest, data.data(),
                                    data.size(), opts)
                  .is_ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(read_artifact(path, ArtifactKind::kManifest, opts, &out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(DurableFileTest, MissingFileIsNotFound) {
  std::vector<std::uint8_t> out;
  EXPECT_EQ(read_artifact("/nonexistent/no/such/file.ckpt",
                          ArtifactKind::kCheckpoint, DurableOptions{}, &out)
                .code(),
            StatusCode::kNotFound);
}

TEST(DurableFileTest, UnframedFileIsDataLoss) {
  // A file on disk with no MSDF magic (the pre-checksum layout) is never
  // handed back as a payload, and the read leaves it as it was.
  const std::string dir = fresh_dir("ms_durable_unframed");
  const std::string path = dir + "/op_0.ckpt";
  const auto old = bytes_of("state written before framing existed");
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(old.data()),
            static_cast<std::streamsize>(old.size()));
  }
  std::vector<std::uint8_t> out;
  EXPECT_EQ(read_artifact(path, ArtifactKind::kCheckpoint, DurableOptions{},
                          &out)
                .code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(out.empty());
  std::ifstream f(path, std::ios::binary);
  const std::vector<std::uint8_t> after(
      (std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(after, old);
}

TEST(DurableFileTest, AtRestBitFlipIsCaughtOnRead) {
  const std::string dir = fresh_dir("ms_durable_bitrot");
  const std::string path = dir + "/op_0.ckpt";
  const auto data = payload(200);
  const DurableOptions opts{SyncMode::kNone, nullptr};
  ASSERT_TRUE(write_artifact(path, ArtifactKind::kCheckpoint, data.data(),
                             data.size(), opts)
                  .is_ok());
  ASSERT_TRUE(flip_bit_in_file(path, /*bit=*/(kArtifactHeaderSize + 99) * 8 + 3));
  std::vector<std::uint8_t> out;
  EXPECT_EQ(read_artifact(path, ArtifactKind::kCheckpoint, opts, &out).code(),
            StatusCode::kDataLoss);
}

TEST(DurableFileTest, AtRestTruncationIsCaughtOnRead) {
  const std::string dir = fresh_dir("ms_durable_trunc");
  const std::string path = dir + "/op_0.delta";
  const auto data = payload(200);
  const DurableOptions opts{SyncMode::kNone, nullptr};
  ASSERT_TRUE(write_artifact(path, ArtifactKind::kDelta, data.data(),
                             data.size(), opts)
                  .is_ok());
  ASSERT_TRUE(truncate_file_to(path, kArtifactHeaderSize + 100));
  std::vector<std::uint8_t> out;
  EXPECT_EQ(read_artifact(path, ArtifactKind::kDelta, opts, &out).code(),
            StatusCode::kDataLoss);
}

// --- fault injection through the injector ----------------------------------

TEST(DiskFaultTest, TornWriteReportsSuccessButDamagesTheFile) {
  const std::string dir = fresh_dir("ms_fault_torn");
  const std::string path = dir + "/op_0.ckpt";
  DiskFaultInjector faults;
  faults.arm_write(ArtifactKind::kCheckpoint, WriteFault::kTorn,
                   /*offset=*/kArtifactHeaderSize + 10);
  const DurableOptions opts{SyncMode::kNone, &faults};
  const auto data = payload(128);
  // The lying disk: the write "succeeds"...
  ASSERT_TRUE(write_artifact(path, ArtifactKind::kCheckpoint, data.data(),
                             data.size(), opts)
                  .is_ok());
  EXPECT_EQ(faults.injected(), 1);
  // ...and only the verify-on-read catches it.
  std::vector<std::uint8_t> out;
  EXPECT_EQ(read_artifact(path, ArtifactKind::kCheckpoint, opts, &out).code(),
            StatusCode::kDataLoss);
}

TEST(DiskFaultTest, WriteErrorIsRetryable) {
  const std::string dir = fresh_dir("ms_fault_werr");
  DiskFaultInjector faults;
  faults.arm_write(ArtifactKind::kManifest, WriteFault::kError);
  const DurableOptions opts{SyncMode::kNone, &faults};
  const auto data = payload(32);
  EXPECT_EQ(write_artifact_atomic(dir + "/MANIFEST", ArtifactKind::kManifest,
                                  data.data(), data.size(), opts)
                .code(),
            StatusCode::kUnavailable);
  // One-shot by default: the retry goes through.
  EXPECT_TRUE(write_artifact_atomic(dir + "/MANIFEST", ArtifactKind::kManifest,
                                    data.data(), data.size(), opts)
                  .is_ok());
}

// Every byte lands but the sync fails: the bytes are not durable, so the
// atomic write never reaches its rename.
TEST(DiskFaultTest, SyncErrorFailsTheCommit) {
  const std::string dir = fresh_dir("ms_fault_syncerr");
  const std::string path = dir + "/MANIFEST";
  DiskFaultInjector faults;
  faults.arm_write(ArtifactKind::kManifest, WriteFault::kSyncError);
  const DurableOptions opts{SyncMode::kCommit, &faults};
  const auto data = payload(32);
  EXPECT_EQ(write_artifact_atomic(path, ArtifactKind::kManifest, data.data(),
                                  data.size(), opts)
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(faults.injected(), 1);
  EXPECT_FALSE(fs::exists(path)) << "committed without a durable write";
}

TEST(DiskFaultTest, CrashBeforeRenameLeavesNoCommittedFile) {
  const std::string dir = fresh_dir("ms_fault_prerename");
  const std::string path = dir + "/MANIFEST";
  DiskFaultInjector faults;
  bool crashed = false;
  faults.set_crash_hook([&crashed] { crashed = true; });
  faults.arm_write(ArtifactKind::kManifest, WriteFault::kCrashBeforeRename);
  const DurableOptions opts{SyncMode::kNone, &faults};
  const auto data = payload(32);
  EXPECT_FALSE(write_artifact_atomic(path, ArtifactKind::kManifest,
                                     data.data(), data.size(), opts)
                   .is_ok());
  EXPECT_TRUE(crashed);
  EXPECT_FALSE(fs::exists(path)) << "commit point was never reached";
}

TEST(DiskFaultTest, CrashAfterRenameLeavesTheCommittedFile) {
  const std::string dir = fresh_dir("ms_fault_postrename");
  const std::string path = dir + "/MANIFEST";
  DiskFaultInjector faults;
  bool crashed = false;
  faults.set_crash_hook([&crashed] { crashed = true; });
  faults.arm_write(ArtifactKind::kManifest, WriteFault::kCrashAfterRename);
  const DurableOptions opts{SyncMode::kNone, &faults};
  const auto data = payload(32);
  // The writer dies believing the commit failed...
  EXPECT_FALSE(write_artifact_atomic(path, ArtifactKind::kManifest,
                                     data.data(), data.size(), opts)
                   .is_ok());
  EXPECT_TRUE(crashed);
  // ...but the rename landed: the artifact is durable and verifies clean.
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(
      read_artifact(path, ArtifactKind::kManifest, DurableOptions{}, &out)
          .is_ok());
  EXPECT_EQ(out, data);
}

TEST(DiskFaultTest, ReadFaultsMatchPathAndOccurrence) {
  const std::string dir = fresh_dir("ms_fault_read");
  const std::string a = dir + "/op_0.ckpt";
  const std::string b = dir + "/op_1.ckpt";
  const auto data = payload(90);
  const DurableOptions clean{SyncMode::kNone, nullptr};
  ASSERT_TRUE(write_artifact(a, ArtifactKind::kCheckpoint, data.data(),
                             data.size(), clean)
                  .is_ok());
  ASSERT_TRUE(write_artifact(b, ArtifactKind::kCheckpoint, data.data(),
                             data.size(), clean)
                  .is_ok());

  DiskFaultInjector faults;
  DiskFaultInjector::Options match;
  match.path_contains = "op_1";
  faults.arm_read(ArtifactKind::kCheckpoint, ReadFault::kBitFlip,
                  /*offset=*/(kArtifactHeaderSize + 5) * 8, match);
  const DurableOptions opts{SyncMode::kNone, &faults};
  std::vector<std::uint8_t> out;
  // op_0 does not match the rule and reads clean.
  EXPECT_TRUE(read_artifact(a, ArtifactKind::kCheckpoint, opts, &out).is_ok());
  // op_1 takes the in-flight bit flip (the file itself stays intact).
  EXPECT_EQ(read_artifact(b, ArtifactKind::kCheckpoint, opts, &out).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(read_artifact(b, ArtifactKind::kCheckpoint, clean, &out).is_ok());
}

TEST(DiskFaultTest, StickyRuleFiresUntilCleared) {
  const std::string dir = fresh_dir("ms_fault_sticky");
  const std::string path = dir + "/op_0.ckpt";
  const auto data = payload(40);
  const DurableOptions clean{SyncMode::kNone, nullptr};
  ASSERT_TRUE(write_artifact(path, ArtifactKind::kCheckpoint, data.data(),
                             data.size(), clean)
                  .is_ok());
  DiskFaultInjector faults;
  DiskFaultInjector::Options match;
  match.sticky = true;
  faults.arm_read(ArtifactKind::kCheckpoint, ReadFault::kError, 0, match);
  const DurableOptions opts{SyncMode::kNone, &faults};
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(read_artifact(path, ArtifactKind::kCheckpoint, opts, &out).code(),
              StatusCode::kUnavailable);
  }
  faults.clear();
  EXPECT_TRUE(read_artifact(path, ArtifactKind::kCheckpoint, opts, &out).is_ok());
  EXPECT_GE(faults.injected(), 3);
}

// --- append files ----------------------------------------------------------

TEST(AppendFileTest, AppendsAccumulateAndSurviveReopen) {
  const std::string dir = fresh_dir("ms_append");
  const std::string path = dir + "/source_0.log";
  const DurableOptions opts{SyncMode::kAlways, nullptr};
  {
    AppendFile f;
    ASSERT_TRUE(f.open(path));
    ASSERT_TRUE(f.append("abc", 3, opts));
    ASSERT_TRUE(f.append("defg", 4, opts));
  }
  {
    AppendFile f;
    ASSERT_TRUE(f.open(path));  // reopen appends, never truncates
    ASSERT_TRUE(f.append("hi", 2, opts));
  }
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(read_raw(path, ArtifactKind::kSourceLog, DurableOptions{}, &out)
                  .is_ok());
  EXPECT_EQ(out, bytes_of("abcdefghi"));
}

TEST(AppendFileTest, TornAppendReportsFailureAfterPartialWrite) {
  const std::string dir = fresh_dir("ms_append_torn");
  const std::string path = dir + "/source_0.log";
  DiskFaultInjector faults;
  faults.arm_write(ArtifactKind::kSourceLog, WriteFault::kTorn, /*offset=*/2);
  const DurableOptions opts{SyncMode::kNone, &faults};
  AppendFile f;
  ASSERT_TRUE(f.open(path));
  EXPECT_FALSE(f.append("abcdef", 6, opts));  // torn: only 2 bytes landed
  EXPECT_TRUE(f.append("XYZ", 3, opts));      // one-shot rule is spent
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(read_raw(path, ArtifactKind::kSourceLog, DurableOptions{}, &out)
                  .is_ok());
  EXPECT_EQ(out, bytes_of("abXYZ"));
}

// A truncation cuts the file back in place and moves size(): a failed
// append's leftovers (truncate(size())) or a torn tail.
TEST(AppendFileTest, TruncateCutsBackInPlace) {
  const std::string dir = fresh_dir("ms_append_truncate");
  const std::string path = dir + "/source_0.log";
  const DurableOptions opts{SyncMode::kNone, nullptr};
  AppendFile f;
  EXPECT_FALSE(f.truncate(0));  // closed
  ASSERT_TRUE(f.open(path));
  ASSERT_TRUE(f.append("abcdef", 6, opts));
  ASSERT_TRUE(f.truncate(4));
  EXPECT_EQ(f.size(), 4u);
  EXPECT_EQ(fs::file_size(path), 4u);
  ASSERT_TRUE(f.append("XY", 2, opts));
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(read_raw(path, ArtifactKind::kSourceLog, DurableOptions{}, &out)
                  .is_ok());
  EXPECT_EQ(out, bytes_of("abcdXY"));
}

}  // namespace
}  // namespace ms::storage
