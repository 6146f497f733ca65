// Real-threads execution engine.
//
// Runs a core::QueryGraph inside one process with actual threads — the
// library's "engine mode", used by the quickstart example and as an
// existence proof that the Operator API is execution-agnostic:
//
//  - one worker thread per operator; one lock-free SPSC ring per
//    (upstream, downstream) edge, so every ring has exactly one producer
//    (the upstream operator — all of its emit paths hold its op_mu) and
//    one consumer (the downstream worker thread). Blocking enqueue is the
//    backpressure: a producer parks on the consumer's eventcount when the
//    edge holds queue_capacity tuples (a batch is never split, so
//    occupancy may overshoot by up to max_batch — the same
//    queue_capacity + max_batch bound as the mutexed transport had);
//  - batched transport: each operator has one context, shared by all of its
//    emit paths under op_mu; emits accumulate in its per-out-edge buffers
//    and move downstream as one ring entry (on the max_batch watermark, on
//    operator return, and before any token is forwarded); idle workers
//    park on an eventcount and producers defer the wake until half a queue
//    of tuples is pending (tokens and per-tuple delivery wake immediately).
//    Batch carriers recycle through a per-edge return ring, so the
//    steady-state hot path takes no mutex and touches no shared allocator;
//  - a timer thread drives OperatorContext::schedule (source emission,
//    windows);
//  - checkpoint *mechanisms*, not checkpoint *policy*: the engine aligns
//    Chandy-Lamport tokens, serializes operator state at the aligned cut,
//    taps source emissions for log preservation, and replays logged tuples
//    after a restore — but it owns no files, no epochs-in-flight bookkeeping
//    and no schedule. The protocol (when to checkpoint, where snapshots go,
//    how recovery proceeds) lives behind ft::Runtime in ft/rt_runtime.*,
//    which drives these primitives exactly like MsScheme drives the
//    simulator. Snapshot serialization reuses pooled buffers sized by the
//    previous epoch, so steady-state checkpoints allocate nothing on the
//    data path;
//  - metrics, not tracing: besides the optional MetricsRegistry the engine
//    records nothing. Its protocol points (ProtoProbe) reach ft::RtRuntime,
//    whose FtPoint probes feed the same ft::ProbeTracer the simulator uses.
//
// Invariants preserved by batching and by the ring transport (see
// DESIGN.md §5c and §5h):
//  - per-edge FIFO: tuples emitted on one out-edge arrive downstream in
//    emit order, for every max_batch setting and whether process() or a
//    timer callback emitted them (both append to the operator's one set of
//    buffers; an SPSC ring is FIFO by construction; recovery preload is
//    processed before any live entry);
//  - token flush barrier: all output produced before a token is forwarded
//    is flushed ahead of the token, so a checkpoint taken mid-batch
//    captures exactly the pre-token tuples on every edge;
//  - source-boundary exactness: a source's out-edge buffers are tapped and
//    counted as whole batches, each just before it is published, under the
//    same per-operator mutex (op_mu) that guards snapshot serialization;
//    every emit path flushes before it releases op_mu (timer callbacks
//    included), so the boundary recorded in a source's Snapshot equals the
//    number of tapped tuples that are upstream of the token on every
//    out-edge — the replay cursor recovery needs. op_mu survives the
//    lock-free transport precisely for this snapshot-vs-mutator exclusion;
//    it is never part of queue signaling;
//  - max_batch = 1 reproduces per-tuple delivery: one ring entry per
//    tuple, no buffers — the reference engine_batch_test compares batched
//    runs against.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/buffer_pool.h"
#include "common/eventcount.h"
#include "common/metrics_registry.h"
#include "common/spsc_ring.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer_thread.h"
#include "core/query_graph.h"
#include "core/tuple.h"

namespace ms::rt {

struct RtConfig {
  /// Backpressure bound per edge, in tuples: a producer blocks while an
  /// edge already holds this many.
  std::size_t queue_capacity = 4096;
  /// Upper bound on tuples accumulated per out-edge before a flush to the
  /// downstream ring. 64 is the measured sweet spot on the chain/diamond
  /// micro-benchmarks (see DESIGN.md §5c); 1 disables batching and
  /// reproduces per-tuple delivery exactly.
  std::size_t max_batch = 64;
  std::uint64_t seed = 0x5eedULL;
  /// Optional live metrics sink: rt.* counters, per-operator queue-depth
  /// gauges (rt.op.<id>.queue_depth, summed from the ring occupancy
  /// counters), and per-operator enqueue-wait histograms
  /// (rt.op.<id>.enqueue_wait_ns — time producers spent blocked on that
  /// operator's backpressure).
  MetricsRegistry* metrics = nullptr;
};

/// When an aligned operator's snapshot is handed to the sink relative to the
/// token being forwarded downstream.
///  - kSync: on the worker thread, *before* the token moves on — the sink's
///    write is durable before any downstream effect exists (the engine
///    analogue of MS-src's synchronous write).
///  - kAsync: the worker serializes in memory, forwards the token at once,
///    and a helper thread invokes the sink — the thread-level analogue of
///    the paper's fork/copy-on-write helper (MS-src+ap).
enum class SnapshotMode { kSync, kAsync };

/// What an epoch captures of each operator's state.
///  - kFull: serialize_state — the complete state, a chain base.
///  - kDelta: serialize_delta — only state mutated since the operator's last
///    mark_checkpointed() cut. Operators that don't supports_delta() fall
///    back to a full serialization even on delta epochs (per-operator; the
///    Snapshot records which happened).
enum class SnapshotKind { kFull, kDelta };

/// One operator's state captured at a token-aligned cut. `data` is
/// borrowed: valid only for the duration of the SnapshotSink call — copy or
/// write it out before returning.
struct Snapshot {
  int op = 0;
  std::uint64_t epoch = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  /// True when `data` is a delta (serialize_delta against the previous
  /// cut), false when it is a full state image.
  bool delta = false;
  /// Sources only (0 otherwise): number of tuples this source had emitted —
  /// and the tap had logged — strictly before this snapshot. Every one of
  /// them is upstream of the token on every out-edge (flush barrier), so
  /// this is the epoch's replay boundary.
  std::uint64_t source_boundary = 0;
  /// Sources only: the lineage sequence counter at the boundary; restoring
  /// it prevents replayed and fresh tuples from colliding on tuple ids.
  std::uint64_t source_next_seq = 0;
};

/// Receives every Snapshot. May be called concurrently from several worker
/// or helper threads; must be installed before start().
using SnapshotSink = std::function<void(const Snapshot&)>;

/// Observes every batch a source operator publishes on `out_port`, before
/// it is dispatched downstream — the hook source-log preservation hangs off
/// ("durable before dispatch"). One call per flushed out-edge buffer (1 to
/// max_batch tuples, in emit order; a batch of one under max_batch == 1),
/// which the source log keeps as one frame and replay_downstream re-delivers
/// as one ring entry.
/// Runs under the source's per-operator mutex, on whichever thread is
/// flushing; `tuples` is valid only for the call.
using SourceTap = std::function<void(int op, int out_port,
                                     const core::Tuple* tuples, std::size_t n)>;

/// Protocol instrumentation points on the engine's checkpoint mechanisms.
enum class ProtoPoint { kTokenArrived, kAligned, kSerializeStart, kSerializeDone };
using ProtoProbe = std::function<void(ProtoPoint, int op, std::uint64_t epoch)>;

class RtEngine {
 public:
  RtEngine(const core::QueryGraph& graph, RtConfig config);
  ~RtEngine();

  RtEngine(const RtEngine&) = delete;
  RtEngine& operator=(const RtEngine&) = delete;

  /// start()/stop() may cycle: recovery stops the engine, restores operator
  /// state, and starts it again (on_open re-arms source timers from the
  /// restored state). Timers and token alignment are reset on every start.
  void start();

  /// Stop source timers, drain all rings, join all workers. Pending
  /// asynchronous snapshot deliveries complete before stop() returns.
  void stop();

  // --- checkpoint/recovery primitives (policy-free; see ft/rt_runtime.*) ---

  /// Install the snapshot receiver / per-batch source tap / protocol probe.
  /// All three must be set (or left unset) before start().
  void set_snapshot_sink(SnapshotSink sink) { sink_ = std::move(sink); }
  void set_source_tap(SourceTap tap) { source_tap_ = std::move(tap); }
  void set_proto_probe(ProtoProbe probe) { proto_probe_ = std::move(probe); }

  /// Inject epoch `epoch`'s token at every source and return immediately;
  /// alignment and snapshot delivery proceed on the worker/helper threads.
  /// `kind` selects full or delta serialization at the cut (delta-capable
  /// operators only; the rest serialize fully either way). Fails
  /// (kFailedPrecondition) when not running or no sink is installed, and
  /// (kUnavailable) while a previous epoch is still aligning.
  Status begin_epoch(std::uint64_t epoch, SnapshotMode mode,
                     SnapshotKind kind = SnapshotKind::kFull);

  /// True while any operator of the last begin_epoch() has not yet delivered
  /// its snapshot.
  bool epoch_in_flight() const { return align_pending_.load() != 0; }

  /// Replace an operator's state from serialized bytes (clear_state, then
  /// deserialize unless `bytes` is empty). Requires the engine stopped.
  Status restore_operator(int op, const std::vector<std::uint8_t>& bytes);

  /// Layer one delta blob (a kDelta Snapshot's bytes) onto an operator's
  /// current state — recovery calls this per chain link after
  /// restore_operator() set the full base. Empty bytes are a no-op delta.
  /// Requires the engine stopped.
  Status apply_operator_delta(int op, const std::vector<std::uint8_t>& bytes);

  /// Reset a source's emission cursor after a restore: `next_seq` is the
  /// lineage sequence to continue from, `emitted` the tap count (log length)
  /// to continue from. Requires the engine stopped and `op` a source.
  Status set_source_progress(int op, std::uint64_t next_seq,
                             std::uint64_t emitted);

  /// Re-deliver one preserved batch on one of `op`'s out-edges as one ring
  /// entry, bypassing the operator (and the tap — the batch is already
  /// logged). Requires the engine stopped (kFailedPrecondition otherwise):
  /// recovery enqueues the whole preserved suffix, batch by batch as the
  /// tap logged it, before start() — it lands in the edge's preload list,
  /// which the downstream worker adopts ahead of any live ring entry, so
  /// fresh emissions can never overtake a replayed tuple. (Stopped-only is
  /// also what keeps each ring single-producer.)
  Status replay_downstream(int op, int out_port,
                           std::vector<core::Tuple> batch);

  // --- introspection ---

  int num_operators() const { return static_cast<int>(workers_.size()); }
  bool op_is_source(int op) const {
    return workers_[static_cast<std::size_t>(op)]->is_source;
  }
  /// Declared state size of one operator, taken under its operator mutex —
  /// safe from any thread that holds none (the runtime's AA sampling).
  Bytes op_state_size(int op) const;

  std::int64_t tuples_processed(int op) const;
  std::int64_t sink_tuples() const { return sink_tuples_.load(); }
  core::Operator& op(int id) { return *workers_[static_cast<std::size_t>(id)]->op; }
  bool running() const { return running_.load(); }

  /// Total wall-clock the engine has been running.
  SimTime uptime() const;

 private:
  struct Worker;
  class RtContext;
  friend class RtContext;

  /// One transport unit: a single tuple (max_batch == 1), a checkpoint
  /// token, or a whole batch moved as one ring entry (one move, one publish).
  using Slot = std::variant<core::Tuple, core::Token, std::vector<core::Tuple>>;

  /// One (upstream → downstream) edge's transport state. One producer —
  /// every emit path of the upstream operator holds its op_mu — and one
  /// consumer, the downstream worker. Memory ordering: DESIGN.md §5h.
  struct InEdge {
    InEdge(int consumer, int in_port, std::size_t ring_slots,
           std::size_t carrier_slots)
        : consumer(consumer),
          in_port(in_port),
          ring(ring_slots),
          carriers(carrier_slots) {}

    const int consumer;  // downstream operator id
    const int in_port;   // this edge's port at the consumer

    /// The transport ring. Sized to queue_capacity + max_batch + 2 slots
    /// (rounded up to a power of two): the tuple-count gate below blocks
    /// producers first, so try_push can never find the ring full.
    SpscRing<Slot> ring;

    /// Drained batch carriers handed back to the producer (roles reversed
    /// from `ring`): one that does not fit is freed, and a producer that
    /// finds none allocates a fresh one.
    SpscRing<std::vector<core::Tuple>> carriers;

    /// Ring occupancy in tuples (a token counts as 1) — the unit
    /// queue_capacity backpressure is measured in. `tuples_pushed` is
    /// written by the producer only, `tuples_popped` by the consumer only;
    /// each lives on its own cache line so the two sides never false-share.
    alignas(64) std::atomic<std::uint64_t> tuples_pushed{0};
    alignas(64) std::atomic<std::uint64_t> tuples_popped{0};

    /// Entries pushed while the engine was stopped (replay_downstream's
    /// preserved-suffix preload). The consumer's worker thread adopts and
    /// processes these before its first live ring entry — they are strictly
    /// older than anything a running producer can push. `preload_pending`
    /// is the cross-thread "is there preload?" flag; the vector itself is
    /// only touched by stopped-engine callers and the adopting worker.
    std::vector<Slot> preload;
    std::atomic<std::size_t> preload_pending{0};
  };

  struct OutEdge {
    int target = 0;        // downstream operator id
    InEdge* edge = nullptr;
  };

  void worker_loop(Worker& w);
  /// Process one transport slot under w's op_mu: a batch (process each
  /// tuple, then return the carrier via e->carriers), a token (alignment /
  /// flush barrier / snapshot), or a single tuple. `done` accumulates
  /// processed tuple counts for the per-pass counter updates.
  void process_slot(Worker& w, InEdge* e, Slot& slot, std::int64_t& done);
  /// Enqueue one slot on `e` (`units` tuples; a token is 1), blocking while
  /// the edge holds queue_capacity tuples (overshoot ≤ max_batch). `urgent`
  /// wakes the consumer at once; otherwise the wake waits for
  /// wake_threshold_ (the wake policy is in push_slot). A stopped engine
  /// preloads the slot instead (recovery replay).
  void push_slot(InEdge& e, Slot&& slot, std::size_t units, bool urgent);
  /// push_slot's slow path: park on the consumer's space eventcount until
  /// occupancy drops below queue_capacity (or the engine stops). Notifies
  /// the consumer first — a producer never sleeps on a consumer it has not
  /// woken — and records the stall in rt.op.<id>.enqueue_wait_ns.
  void wait_for_space(InEdge& e, Worker& consumer, std::uint64_t pushed);
  void snapshot_and_forward_token(Worker& w, const core::Token& token);
  /// Serialize `w`'s operator under its already-held op_mu and hand the
  /// bytes to the sink (kSync: on this thread; kAsync: on a helper).
  /// Advances the delta baseline and decrements align_pending_.
  void capture_snapshot(Worker& w, std::uint64_t epoch, SnapshotMode mode,
                        SnapshotKind kind);
  void emit_proto(ProtoPoint point, int op, std::uint64_t epoch) {
    if (proto_probe_) proto_probe_(point, op, epoch);
  }
  SimTime now() const;

  static std::size_t slot_units(const Slot& s) {
    if (const auto* batch = std::get_if<std::vector<core::Tuple>>(&s)) {
      return batch->size();
    }
    return 1;
  }

  struct Worker {
    int id = 0;
    std::unique_ptr<core::Operator> op;
    bool is_source = false;
    bool is_sink = false;
    std::vector<OutEdge> out_edges;
    int num_in_ports = 0;
    /// This worker's in-edges, in in_port order; workers with no graph
    /// in-edges (sources) get one control edge (in_port 0) that only
    /// begin_epoch() pushes tokens into.
    std::vector<std::unique_ptr<InEdge>> in_edges;
    InEdge* control_edge = nullptr;
    /// The operator's one context, rebuilt by every start(). Every emit
    /// path uses it under op_mu, so its out-edge buffers keep per-edge FIFO
    /// across the worker, timer and starter threads.
    std::unique_ptr<RtContext> ctx;

    /// Serializes *operator execution* — process()/serialize_state() on the
    /// worker thread versus schedule() callbacks (source emission, windows)
    /// on the timer thread versus on_open() on the starter. Without it a
    /// token-aligned snapshot can serialize source state while a timer tick
    /// is mutating it. Taken per drained ring entry (batch granularity),
    /// so the uncontended cost is one lock per batch, not per tuple. It is
    /// pure snapshot-vs-mutator exclusion: transport never signals through
    /// it. Holding it across downstream delivery cannot deadlock because
    /// the query graph is a DAG. It also serializes the *producer* role on
    /// this worker's out-edge rings, and every use of `ctx`, across the
    /// worker and timer threads.
    std::mutex op_mu;

    /// Parking: the consumer sleeps on items_ec when its rings are empty;
    /// producers blocked on this worker's backpressure sleep on space_ec.
    EventCount items_ec;
    EventCount space_ec;
    /// Wake coalescing: a parker arms its flag between the eventcount's
    /// prepare_wait and its predicate re-check; wakers notify only when
    /// their exchange(false) wins the flag. A woken-but-not-yet-scheduled
    /// thread (the common state on a loaded host) therefore costs its
    /// peers one futex syscall total, not one per push. A stale
    /// armed flag after a cancelled wait costs at most one spurious
    /// notify; a missed wake is impossible (see DESIGN.md §5h).
    std::atomic<bool> items_armed{false};
    std::atomic<bool> space_armed{false};

    /// True from before the worker pops anything until it has processed and
    /// flushed everything it popped — cleared only at the park point.
    /// stop()'s drain reads (counters equal, then !busy) to know the worker
    /// owes nothing downstream; see DESIGN.md §5h for the ordering proof.
    std::atomic<bool> busy{true};

    std::atomic<std::int64_t> processed{0};
    std::thread thread;
    std::unique_ptr<Rng> rng;
    std::uint64_t next_seq = 0;   // lineage stamping; guarded by op_mu
    /// Tuples handed to the source tap so far (the sum of its batch sizes)
    /// — the running boundary the snapshot captures. Guarded by op_mu, like
    /// next_seq.
    std::uint64_t tapped = 0;

    // Checkpoint alignment.
    std::vector<bool> token_seen;
    int tokens = 0;
    /// Size of the last serialized snapshot — the reserve hint for the next
    /// epoch's writer, so steady-state serialization never reallocates.
    std::size_t last_snapshot_bytes = 0;

    /// Cached metrics handles (null when metrics are off) so the hot path
    /// never does a by-name registry lookup.
    Gauge* queue_depth = nullptr;
    HistogramMetric* enqueue_wait = nullptr;
  };

  /// Sum of ring occupancies across w's in-edges (relaxed loads) — the
  /// queue_depth gauge value.
  std::size_t queue_depth_now(const Worker& w) const;
  /// Consumer-side idleness check: every in-edge's pop counter has caught
  /// up with its push counter (and no preload is pending).
  bool edges_idle(const Worker& w) const;
  /// stop()'s per-worker drain predicate; must be evaluated only after all
  /// of w's producers have quiesced (topological order + joined timers).
  bool worker_drained(const Worker& w) const;
  /// Per-pass counter updates (processed, sink tuples, metrics).
  void bump_counters(Worker& w, std::int64_t done);

  core::QueryGraph graph_;
  RtConfig config_;
  SnapshotSink sink_;
  SourceTap source_tap_;
  ProtoProbe proto_probe_;
  // Cached metric handles; all null when config_.metrics is null.
  Counter* m_tuples_ = nullptr;
  Counter* m_sink_tuples_ = nullptr;
  HistogramMetric* m_ckpt_bytes_ = nullptr;
  /// Edge occupancy (tuples) at which a deferred batch wake fires — on a
  /// loaded box every wake is a futex syscall plus a context-switch round
  /// trip, an order of magnitude more than moving a whole batch, so waking
  /// once per half-queue instead of once per batch is a large share of the
  /// batching win. Liveness never depends on it: flush_all() notifies at
  /// operator return, producers notify before parking, tokens always wake.
  std::size_t wake_threshold_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<ThreadPool> helpers_;
  BufferPool snapshot_buffers_;

  /// Threads delivering kAsync snapshots to the sink.
  static constexpr std::size_t kHelperThreads = 2;

  /// Ring entries drained per in-edge per sweep before moving to the next
  /// edge — round-robin fairness for multi-input operators.
  static constexpr std::size_t kMaxDrainPerEdge = 64;

  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> sink_tuples_{0};

  /// Operators of the current epoch that have not yet delivered a snapshot;
  /// begin_epoch() refuses to start a new epoch while nonzero.
  std::atomic<int> align_pending_{0};
  /// Mode of the epoch in flight. Written by begin_epoch() only while
  /// align_pending_ == 0; workers read it after receiving the epoch's token
  /// through a ring (release publish / acquire consume), which orders the
  /// write before the read.
  SnapshotMode epoch_mode_ = SnapshotMode::kAsync;
  /// Kind of the epoch in flight; published exactly like epoch_mode_.
  SnapshotKind epoch_kind_ = SnapshotKind::kFull;

  /// Operator timers (OperatorContext::schedule); started and stopped with
  /// the engine, so timers do not survive a stop()/start() cycle.
  TimerThread timers_;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace ms::rt
