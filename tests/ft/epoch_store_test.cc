// EpochStore on its own: hand-written manifests and blobs in a temp dir, no
// engine. Checks which epoch directories survive each commit and scan, the
// recovery ladder, the source-log truncation floors and the GC rule's
// refusals (an unreadable manifest blocks it).
#include "ft/epoch_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "failure/disk_fault.h"
#include "storage/durable_file.h"

namespace ms::ft {
namespace {

namespace fs = std::filesystem;
using Epochs = std::vector<std::uint64_t>;

constexpr int kOps = 2;  // op 0: a source; op 1: a stateful operator
constexpr std::uint64_t kSourceBytes = 8;
constexpr std::uint64_t kFullBytes = 16;
constexpr std::uint64_t kDeltaBytes = 4;

const storage::DurableOptions kNoSync{storage::SyncMode::kNone, nullptr};

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Epoch `epoch` chained on `prev` (0 = full). The source's replay boundary
/// is ten records per epoch, so the floors are easy to read.
EpochManifest manifest_of(std::uint64_t epoch, std::uint64_t prev) {
  EpochManifest m;
  m.epoch = epoch;
  m.prev_epoch = prev;
  m.ops.resize(kOps);
  m.ops[0].size = kSourceBytes;
  m.ops[0].is_source = true;
  m.ops[0].boundary = 10 * epoch;
  m.ops[0].next_seq = 10 * epoch;
  m.ops[1].delta = prev != 0;
  m.ops[1].size = prev != 0 ? kDeltaBytes : kFullBytes;
  return m;
}

/// Every blob of `m`, each byte set to the epoch number.
void write_blobs(const EpochStore& store, const EpochManifest& m) {
  store.create_epoch(m.epoch);
  for (int i = 0; i < kOps; ++i) {
    const EpochManifest::Op& op = m.ops[static_cast<std::size_t>(i)];
    const std::vector<std::uint8_t> bytes(op.size,
                                          static_cast<std::uint8_t>(m.epoch));
    ASSERT_TRUE(
        store.write_blob(m.epoch, i, op.delta, bytes.data(), bytes.size())
            .is_ok());
  }
}

void commit(EpochStore& store, std::uint64_t epoch, std::uint64_t prev) {
  const EpochManifest m = manifest_of(epoch, prev);
  write_blobs(store, m);
  ASSERT_TRUE(store.commit(m).is_ok());
}

/// A committed epoch as a process that died before its GC leaves it: blobs
/// and MANIFEST on disk, nothing else touched.
void write_committed(const std::string& dir, std::uint64_t epoch,
                     std::uint64_t prev) {
  const EpochStore writer(dir, kNoSync, 0);
  const EpochManifest m = manifest_of(epoch, prev);
  write_blobs(writer, m);
  const std::vector<std::uint8_t> payload = encode_manifest(m);
  ASSERT_TRUE(storage::write_artifact_atomic(
                  manifest_path(dir, epoch), storage::ArtifactKind::kManifest,
                  payload.data(), payload.size(), kNoSync)
                  .is_ok());
}

Epochs descending(Epochs e) {
  std::sort(e.rbegin(), e.rend());
  return e;
}

// full(1), delta(2), delta(3), full(4), full(5) committed through the store.
// A full commit deletes the superseded chain's deltas and keeps the newest
// retain_fallback_epochs full epochs off the chain as rungs.
TEST(EpochStoreTest, CommitSequenceKeepsTheChainAndTheNewestRungs) {
  struct Case {
    int retain;
    Epochs after_compaction;  // after full(4)
    Epochs after_full;        // after full(5)
  };
  const std::vector<Case> cases = {
      {0, {4}, {5}},
      {1, {1, 4}, {4, 5}},
      {2, {1, 4}, {1, 4, 5}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("retain_fallback_epochs " + std::to_string(c.retain));
    const std::string dir = fresh_dir("ms_store_commit");
    EpochStore store(dir, kNoSync, c.retain);
    store.scan();
    EXPECT_TRUE(store.chain_broken());
    EXPECT_EQ(store.tip(), 0u);

    EXPECT_FALSE(store.delta_allowed(100, 100.0));  // nothing committed
    commit(store, 1, 0);
    EXPECT_FALSE(store.chain_broken());
    commit(store, 2, 1);
    commit(store, 3, 2);
    EXPECT_EQ(list_epoch_dirs(dir), (Epochs{1, 2, 3}));
    EXPECT_EQ(store.ladder(), (Epochs{3, 2, 1}));
    EXPECT_EQ(store.live_chain().epochs, (Epochs{1, 2, 3}));
    EXPECT_TRUE(store.rungs().empty());
    EXPECT_EQ(store.truncation_floor(0), 10u);
    // Two deltas of 4 bytes on a 24-byte base: compaction is due at two
    // stacked deltas, or once 8 bytes pass ratio x 24.
    EXPECT_FALSE(store.delta_allowed(2, 1.0));
    EXPECT_TRUE(store.delta_allowed(3, 1.0));
    EXPECT_FALSE(store.delta_allowed(3, 0.3));
    EXPECT_TRUE(store.delta_allowed(3, 0.34));

    commit(store, 4, 0);
    EXPECT_EQ(list_epoch_dirs(dir), c.after_compaction);
    EXPECT_EQ(store.ladder(), descending(c.after_compaction));
    EXPECT_EQ(store.live_chain().epochs, (Epochs{4}));
    EXPECT_EQ(store.truncation_floor(0), 10 * c.after_compaction.front());
    EXPECT_TRUE(store.delta_allowed(1, 0.0));

    commit(store, 5, 0);
    EXPECT_EQ(list_epoch_dirs(dir), c.after_full);
    EXPECT_EQ(store.ladder(), descending(c.after_full));
    EXPECT_EQ(store.truncation_floor(0), 10 * c.after_full.front());
    EXPECT_EQ(store.tip(), 5u);
  }
}

// load() resolves a delta tip's chain: each op's newest full record, then its
// deltas oldest first; the replay cursors come from the tip.
TEST(EpochStoreTest, LoadLayersTheChainOntoItsBase) {
  const std::string dir = fresh_dir("ms_store_load");
  EpochStore store(dir, kNoSync, 1);
  store.scan();
  commit(store, 1, 0);
  commit(store, 2, 1);
  commit(store, 3, 2);

  LoadedEpoch loaded;
  ASSERT_TRUE(store.load(3, kOps, &loaded).is_ok());
  // The source's record is full in every epoch: the tip's own.
  EXPECT_EQ(loaded.state[0], std::vector<std::uint8_t>(kSourceBytes, 3));
  EXPECT_TRUE(loaded.deltas[0].empty());
  EXPECT_EQ(loaded.state[1], std::vector<std::uint8_t>(kFullBytes, 1));
  ASSERT_EQ(loaded.deltas[1].size(), 2u);
  EXPECT_EQ(loaded.deltas[1][0], std::vector<std::uint8_t>(kDeltaBytes, 2));
  EXPECT_EQ(loaded.deltas[1][1], std::vector<std::uint8_t>(kDeltaBytes, 3));
  EXPECT_EQ(loaded.boundaries[0], 30u);
  EXPECT_EQ(loaded.bytes_read,
            kSourceBytes + kFullBytes + 2 * kDeltaBytes);

  // A blob missing from the closure is kDataLoss, named by op and epoch.
  fs::remove(blob_path(dir, 2, 1, /*delta=*/true));
  LoadedEpoch broken;
  EXPECT_EQ(store.load(3, kOps, &broken).code(), StatusCode::kDataLoss);
  EXPECT_EQ(broken.corrupt_op, 1);
  EXPECT_EQ(broken.corrupt_epoch, 2u);
}

// A process that committed a compaction and died before its GC leaves
// full(1), delta(2), delta(3), full(4), plus an epoch directory it never
// committed. The scan applies the commit-time rule: the deltas go, the full
// base stays as the rung.
TEST(EpochStoreTest, ScanOfACrashBeforeCompactionGcKeepsTheFullRung) {
  const std::string dir = fresh_dir("ms_store_scan");
  write_committed(dir, 1, 0);
  write_committed(dir, 2, 1);
  write_committed(dir, 3, 2);
  write_committed(dir, 4, 0);
  fs::create_directories(epoch_dir_path(dir, 5));  // died mid-checkpoint

  EpochStore store(dir, kNoSync, 1);
  EXPECT_TRUE(store.scan().empty());
  EXPECT_EQ(list_epoch_dirs(dir), (Epochs{1, 4}));
  EXPECT_EQ(store.ladder(), (Epochs{4, 1}));
  EXPECT_EQ(store.rungs(), (Epochs{1}));
  EXPECT_TRUE(store.live_chain().complete);
  EXPECT_EQ(store.truncation_floor(0), 10u);
  EXPECT_EQ(store.epoch_base(), 5u);
  EXPECT_TRUE(store.chain_broken());
}

// An abandoned epoch breaks the chain (the operators' baselines moved past
// the tip) and leaves no directory; only a full commit repairs the chain.
TEST(EpochStoreTest, AbandonedEpochBreaksTheChain) {
  const std::string dir = fresh_dir("ms_store_abandon");
  EpochStore store(dir, kNoSync, 1);
  store.scan();
  commit(store, 1, 0);
  EXPECT_FALSE(store.chain_broken());

  write_blobs(store, manifest_of(2, 1));
  store.abandon(2, /*remove_files=*/true);
  EXPECT_TRUE(store.chain_broken());
  EXPECT_FALSE(store.delta_allowed(100, 100.0));
  EXPECT_FALSE(fs::exists(epoch_dir_path(dir, 2)));
  EXPECT_EQ(store.tip(), 1u);

  // A dead process deletes nothing.
  write_blobs(store, manifest_of(3, 1));
  store.abandon(3, /*remove_files=*/false);
  EXPECT_TRUE(fs::exists(blob_path(dir, 3, 0, false)));
  EXPECT_EQ(store.ladder(), (Epochs{1}));

  commit(store, 4, 0);
  EXPECT_FALSE(store.chain_broken());
}

// A manifest that cannot be read right now may be anyone's chain link: it
// blocks GC and pins the truncation floors at 0, and recovery reading
// through it is retryable. Once it reads again, the same scan collects.
TEST(EpochStoreTest, UnreadableManifestBlocksGc) {
  const std::string dir = fresh_dir("ms_store_unreadable");
  write_committed(dir, 1, 0);
  write_committed(dir, 2, 1);
  write_committed(dir, 3, 0);

  failure::DiskFaultInjector faults;
  failure::DiskFaultInjector::Options match;
  match.path_contains = "epoch_2/MANIFEST";
  match.sticky = true;
  faults.arm_read(storage::ArtifactKind::kManifest, storage::ReadFault::kError,
                  0, match);
  EpochStore store(dir, {storage::SyncMode::kNone, &faults}, 0);
  EXPECT_TRUE(store.scan().empty());
  EXPECT_GT(faults.injected(), 0);
  EXPECT_EQ(list_epoch_dirs(dir), (Epochs{1, 2, 3}));
  EXPECT_EQ(store.ladder(), (Epochs{3, 2, 1}));
  EXPECT_EQ(store.manifest(2), nullptr);
  EXPECT_EQ(store.truncation_floor(0), 0u);
  LoadedEpoch loaded;
  EXPECT_EQ(store.load(2, kOps, &loaded).code(), StatusCode::kUnavailable);

  faults.clear();
  store.scan();
  EXPECT_EQ(list_epoch_dirs(dir), (Epochs{3}));
  EXPECT_EQ(store.truncation_floor(0), 30u);
}

}  // namespace
}  // namespace ms::ft
