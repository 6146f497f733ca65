// Traced-run instrumentation, all of it outside the library: a counting
// disk hook, a probe subscriber that folds FtProbe points into per-epoch
// phase spans, and direct single-threaded timings of the core and storage
// layers at the sizes a run actually produced.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ft/probe.h"
#include "ft/rt_runtime.h"
#include "storage/durable_file.h"

namespace e2e {

/// No-fault storage::FaultInjector that counts every durable read and write
/// per ArtifactKind (a source-log append counts as one write).
class CountingInjector final : public ms::storage::FaultInjector {
 public:
  static constexpr int kKinds = 6;  // ArtifactKind values are 1..5

  ms::storage::WriteFaultSpec write_fault(const std::string&,
                                          ms::storage::ArtifactKind kind) override {
    writes_[index(kind)].fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  ms::storage::ReadFaultSpec read_fault(const std::string&,
                                        ms::storage::ArtifactKind kind) override {
    reads_[index(kind)].fetch_add(1, std::memory_order_relaxed);
    return {};
  }

  std::int64_t writes(ms::storage::ArtifactKind kind) const {
    return writes_[index(kind)].load(std::memory_order_relaxed);
  }
  std::int64_t reads(ms::storage::ArtifactKind kind) const {
    return reads_[index(kind)].load(std::memory_order_relaxed);
  }

 private:
  static std::size_t index(ms::storage::ArtifactKind kind) {
    return static_cast<std::size_t>(kind) % kKinds;
  }
  std::array<std::atomic<std::int64_t>, kKinds> writes_{};
  std::array<std::atomic<std::int64_t>, kKinds> reads_{};
};

/// One application checkpoint epoch, reassembled from probe points. Every
/// duration is that of the slowest operator, in milliseconds; a phase with
/// no points reads as a negative value and is skipped by the summaries.
struct EpochSpans {
  double align_ms = -1;      // kTokenAlignStart -> last kAlignDone
  double serialize_ms = -1;  // kSerializeStart -> kForkDone
  double write_ms = -1;      // kCheckpointWrite -> kCheckpointDone
  double commit_ms = -1;     // last kCheckpointDone -> manifest durable
};

/// FtProbe subscriber: keeps every point with its time in memory and pairs
/// them into EpochSpans when asked. The commit instant is not a probe point,
/// so a watcher thread polls RtRuntime::last_durable_epoch() while a runtime
/// is attached. Coordinator epoch ids restart with every runtime, so each
/// attach() opens a new incarnation.
class ProbeLog {
 public:
  ProbeLog() = default;
  ~ProbeLog() { detach(); }
  ProbeLog(const ProbeLog&) = delete;
  ProbeLog& operator=(const ProbeLog&) = delete;

  /// Subscribe to `rt` (not yet started) and start watching its commits.
  void attach(ms::ft::RtRuntime* rt);
  /// Stop watching (before the attached runtime is destroyed).
  void detach();
  /// Drop everything recorded so far (measurement-window boundary).
  void clear();

  /// Spans of every epoch whose operators all reported kCheckpointDone
  /// since the last clear().
  std::vector<EpochSpans> epochs() const;

 private:
  struct Point {
    std::int64_t t_ns;
    ms::ft::FtPoint point;
    int unit;
    std::uint64_t id;
    int incarnation;
  };
  void record(ms::ft::FtPoint point, int unit, std::uint64_t id, int inc);

  mutable std::mutex mu_;
  std::vector<Point> points_;                          // guarded by mu_
  std::vector<std::pair<int, std::int64_t>> commits_;  // (incarnation, t); mu_
  std::map<int, int> num_ops_;  // incarnation -> operators; guarded by mu_
  int incarnation_ = 0;         // guarded by mu_

  std::atomic<bool> stop_{false};
  std::thread watcher_;
};

/// Direct single-threaded timings of one layer at a measured size.
struct CoreTimings {
  double process_ns = 0;    // KeyedAgg::process per tuple
  double serialize_ms = 0;  // serialize_state of the run's final state
  double deserialize_ms = 0;
  std::int64_t state_bytes = 0;
};
struct StorageTimings {
  double append_us = 0;          // AppendFile::append per record
  double write_artifact_ms = 0;  // write_artifact of one checkpoint
  double read_artifact_ms = 0;   // read_artifact of the same file
  double crc32c_gbps = 0;        // crc32c over checkpoint-sized bytes
};

class KeyStream;
class KeyedAgg;

/// Times KeyedAgg on one thread: `process` over `tuples` tuples of `keys`
/// onto a state prefilled like the workload's, and serialize/deserialize of
/// `final_state` (the run's own keyed operator, engine stopped), whose
/// serialized bytes land in `*state`.
CoreTimings time_core(const KeyStream& keys, std::int64_t tuples,
                      const KeyedAgg& final_state,
                      std::vector<std::uint8_t>* state);

/// Times storage calls under SyncMode::kCommit in `dir`: appends of
/// `record_bytes`, and write/read/CRC of `checkpoint` bytes.
StorageTimings time_storage(const std::string& dir, std::size_t record_bytes,
                            const std::vector<std::uint8_t>& checkpoint);

}  // namespace e2e
