#include "rt/engine.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"

namespace ms::rt {
namespace {

/// One polite busy-wait beat for spin-before-park loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Spin iterations before a parked wait. A pipelined peer is usually
/// microseconds from its next flush, less than a futex park/unpark round
/// trip; a few hundred PAUSE beats (~10 µs) ride out the common gap, and
/// idle workers still park afterwards. On a single-CPU host the peer cannot
/// run while we spin, so spin_before_park() is zero there.
constexpr int kSpinBeforePark = 384;

int spin_before_park() {
  static const int iters =
      std::thread::hardware_concurrency() > 1 ? kSpinBeforePark : 0;
  return iters;
}

/// Coalesced notify: fire the eventcount only when this waker wins the
/// armed flag. Parkers re-arm before every prepare/re-check/wait sequence,
/// so losing the exchange means someone else already notified after the
/// current park began (or the peer is awake) — either way no wake is owed.
void wake(std::atomic<bool>& armed, EventCount& ec) {
  if (armed.exchange(false, std::memory_order_seq_cst)) ec.notify();
}

}  // namespace

/// The one OperatorContext of an operator, owned by its Worker: the
/// per-out-edge batch buffers every emit path (worker, timer thread,
/// starter) fills under op_mu, so per-edge FIFO holds across threads. The
/// batching and source-boundary invariants are in the header.
class RtEngine::RtContext final : public core::OperatorContext {
 public:
  RtContext(RtEngine* engine, Worker* worker)
      : engine_(engine),
        worker_(worker),
        max_batch_(engine->config_.max_batch),
        tap_(worker->is_source && static_cast<bool>(engine->source_tap_)) {
    if (max_batch_ > 1) {
      buffers_.resize(worker_->out_edges.size());
      for (std::size_t p = 0; p < buffers_.size(); ++p) refill(p);
    }
  }

  SimTime now() const override { return engine_->now(); }
  Rng& rng() override { return *worker_->rng; }

  void emit(int out_port, core::Tuple&& tuple) override {
    MS_CHECK(out_port >= 0 &&
             out_port < static_cast<int>(worker_->out_edges.size()));
    // Stamp lineage the way the simulated HAU does.
    if (tuple.event_time == SimTime::zero()) tuple.event_time = now();
    if (tuple.id == 0) {
      tuple.source_hau = static_cast<std::uint32_t>(worker_->id);
      tuple.source_seq = ++worker_->next_seq;
      tuple.id = core::Tuple::make_id(tuple.source_hau, tuple.source_seq);
    }
    if (buffers_.empty()) {  // max_batch == 1: the seed's per-tuple path
      tap_batch(out_port, &tuple, 1);
      OutEdge& oe = worker_->out_edges[static_cast<std::size_t>(out_port)];
      engine_->push_slot(*oe.edge, Slot(std::move(tuple)), 1,
                         /*urgent=*/false);
      return;
    }
    auto& buf = buffers_[static_cast<std::size_t>(out_port)].tuples;
    buf.push_back(std::move(tuple));
    if (buf.size() >= max_batch_) {
      flush_port(static_cast<std::size_t>(out_port));
    }
  }

  /// Copy-emit fast path: a fully stamped lvalue tuple headed for a batch
  /// buffer is copied exactly once, straight into the buffer. Anything that
  /// needs stamping or the per-tuple Slot path takes the generic
  /// copy-then-forward route.
  void emit(int out_port, const core::Tuple& tuple) override {
    if (buffers_.empty() || tuple.event_time == SimTime::zero() ||
        tuple.id == 0) {
      emit(out_port, core::Tuple(tuple));
      return;
    }
    MS_CHECK(out_port >= 0 &&
             out_port < static_cast<int>(worker_->out_edges.size()));
    auto& buf = buffers_[static_cast<std::size_t>(out_port)].tuples;
    buf.push_back(tuple);
    if (buf.size() >= max_batch_) {
      flush_port(static_cast<std::size_t>(out_port));
    }
  }

  /// Flush every out-edge buffer to its downstream ring. Called before a
  /// token is forwarded (the flush barrier checkpoint alignment depends on)
  /// and when the operator returns control to the engine. The producer is
  /// pausing here, so fire the wake it deferred on every downstream it
  /// actually sent tuples to (ports that flushed nothing have nothing a
  /// consumer could be waiting on — per-push crossing wakes covered any
  /// earlier flush).
  void flush_all() {
    if (buffers_.empty()) return;  // max_batch == 1: nothing ever deferred
    for (std::size_t p = 0; p < buffers_.size(); ++p) {
      flush_port(p);
      // The dirty bit covers mid-pass watermark flushes too: a buffer that
      // flushed at exactly the watermark leaves nothing for flush_port here,
      // but the downstream may still be parked on that sub-threshold data.
      if (buffers_[p].dirty) {
        buffers_[p].dirty = false;
        Worker& t =
            *engine_->workers_[static_cast<std::size_t>(worker_->out_edges[p].target)];
        wake(t.items_armed, t.items_ec);
      }
    }
  }

  int num_out_ports() const override {
    return static_cast<int>(worker_->out_edges.size());
  }
  int num_in_ports() const override { return worker_->num_in_ports; }

  void schedule(SimTime delay,
                std::function<void(core::OperatorContext&)> fn) override {
    engine_->timers_.after(delay, [worker = worker_, fn = std::move(fn)] {
      // Under op_mu, flushed before it releases: a snapshot sees all or
      // none of this tick's emissions, and the tick holds the out-edge
      // rings' producer role. Delivery waits only on downstream
      // backpressure and the graph is a DAG, so this cannot deadlock.
      std::scoped_lock op_lock(worker->op_mu);
      fn(*worker->ctx);
      worker->ctx->flush_all();
    });
  }

  void charge(SimTime cost) override { (void)cost; }  // kernels really run

  int hau_id() const override { return worker_->id; }

 private:
  void flush_port(std::size_t p) {
    auto& buf = buffers_[p].tuples;
    if (buf.empty()) return;
    buffers_[p].dirty = true;
    OutEdge& oe = worker_->out_edges[p];
    const std::size_t n = buf.size();
    tap_batch(static_cast<int>(p), buf.data(), n);
    // The whole buffer moves downstream as one ring entry.
    engine_->push_slot(*oe.edge, Slot(std::move(buf)), n, /*urgent=*/false);
    refill(p);
  }

  /// Source preservation tap: hand the stamped tuples about to be published
  /// on `port` to the tap *before* any downstream effect exists (the log
  /// write is the tap's job; its durability before dispatch is the
  /// protocol's replay guarantee) — one call per flushed batch. The tap and
  /// the `tapped` counter ride under op_mu — every emit path holds it and
  /// flushes before releasing it — so a snapshot's source_boundary is exact.
  void tap_batch(int port, const core::Tuple* tuples, std::size_t n) {
    if (!tap_) return;
    engine_->source_tap_(worker_->id, port, tuples, n);
    worker_->tapped += n;
  }

  /// Give port p's buffer storage: a carrier the downstream consumer handed
  /// back (lock-free and cache-warm), or a fresh one at batch capacity.
  void refill(std::size_t p) {
    auto& buf = buffers_[p].tuples;
    if (!worker_->out_edges[p].edge->carriers.try_pop(buf)) {
      buf.clear();  // a moved-from carrier is valid but unspecified
      buf.reserve(max_batch_);
    }
  }

  RtEngine* engine_;
  Worker* worker_;
  // Hot-path constants hoisted out of the per-tuple emit: the batch
  // watermark and whether the source tap is installed (taps must be set
  // before start(), so caching at construction is sound).
  const std::size_t max_batch_;
  const bool tap_;
  // One output buffer per out-edge; empty when batching is off. Each sits
  // on its own cache line: every start() allocates all operators' contexts
  // back to back, and their worker threads write these on every emit.
  struct alignas(64) PortBuffer {
    std::vector<core::Tuple> tuples;
    // Flushed since the last flush_all — the deferred-wake debt.
    bool dirty = false;
  };
  std::vector<PortBuffer> buffers_;
};

RtEngine::RtEngine(const core::QueryGraph& graph, RtConfig config)
    : graph_(graph), config_(std::move(config)) {
  const Status st = graph_.validate();
  MS_CHECK_MSG(st.is_ok(), "invalid query network: " + st.to_string());
  if (config_.max_batch == 0) config_.max_batch = 1;
  // Half the queue keeps backpressure ahead of the wakes (wake_threshold_).
  wake_threshold_ = config_.max_batch > 1
                        ? std::max<std::size_t>(1, config_.queue_capacity / 2)
                        : 1;
  Rng seeder(config_.seed);
  workers_.reserve(static_cast<std::size_t>(graph_.num_operators()));
  for (int i = 0; i < graph_.num_operators(); ++i) {
    auto w = std::make_unique<Worker>();
    w->id = i;
    w->op = graph_.op(i).factory();
    w->is_source = graph_.op(i).is_source;
    w->is_sink = graph_.op(i).is_sink;
    w->rng = std::make_unique<Rng>(seeder.fork(static_cast<std::uint64_t>(i)));
    workers_.push_back(std::move(w));
  }
  // The units gate (queue_capacity, overshoot ≤ max_batch, +1 for a token)
  // blocks producers before the ring can fill, so try_push never fails.
  const std::size_t ring_slots =
      config_.queue_capacity + config_.max_batch + 2;
  const std::size_t carrier_slots = config_.max_batch > 1 ? 256 : 1;
  for (const auto& e : graph_.edges()) {
    Worker& to = *workers_[static_cast<std::size_t>(e.to)];
    auto edge =
        std::make_unique<InEdge>(e.to, e.in_port, ring_slots, carrier_slots);
    workers_[static_cast<std::size_t>(e.from)]->out_edges.push_back(
        OutEdge{e.to, edge.get()});
    to.in_edges.push_back(std::move(edge));
    to.num_in_ports++;
  }
  for (auto& w : workers_) {
    // Workers with no graph in-edges (sources) get a control edge so
    // begin_epoch() can inject tokens; its single producer is the epoch
    // starter, serialized by the align_pending_ RMW chain.
    if (w->in_edges.empty()) {
      auto edge = std::make_unique<InEdge>(w->id, 0, ring_slots, carrier_slots);
      w->control_edge = edge.get();
      w->in_edges.push_back(std::move(edge));
    }
    w->token_seen.assign(static_cast<std::size_t>(w->num_in_ports), false);
  }
  helpers_ = std::make_unique<ThreadPool>(kHelperThreads);
  if (config_.metrics != nullptr) {
    MetricsRegistry& m = *config_.metrics;
    m_tuples_ = m.counter("rt.tuples");
    m_sink_tuples_ = m.counter("rt.sink_tuples");
    m_ckpt_bytes_ = m.histogram("rt.ckpt.snapshot_bytes");
    for (auto& w : workers_) {
      w->queue_depth =
          m.gauge("rt.op." + std::to_string(w->id) + ".queue_depth");
      w->enqueue_wait =
          m.histogram("rt.op." + std::to_string(w->id) + ".enqueue_wait_ns");
    }
  }
}

RtEngine::~RtEngine() {
  if (running_.load()) stop();
}

SimTime RtEngine::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - started_at_;
  return SimTime::nanos(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

SimTime RtEngine::uptime() const { return now(); }

void RtEngine::start() {
  MS_CHECK(!running_.load());
  started_at_ = std::chrono::steady_clock::now();
  // A previous run may have been stopped mid-epoch (crash drills); token
  // alignment always starts from scratch.
  for (auto& w : workers_) {
    std::fill(w->token_seen.begin(), w->token_seen.end(), false);
    w->tokens = 0;
    // Workers count as busy until their first park, so stop()'s drain never
    // declares a not-yet-scheduled worker idle.
    w->busy.store(true, std::memory_order_relaxed);
  }
  align_pending_.store(0);
  // One context per operator for the whole run, built before any thread
  // exists (and after the source tap is installed, which it caches).
  for (auto& w : workers_) w->ctx = std::make_unique<RtContext>(this, w.get());
  running_.store(true);
  timers_.start();
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_loop(*worker); });
  }
  // Open operators (sources arm their timers) after workers exist so early
  // emissions have somewhere to go. The flush completes before the mutex
  // releases (same rule as timer callbacks).
  for (auto& w : workers_) {
    std::scoped_lock op_lock(w->op_mu);
    w->op->on_open(*w->ctx);
    w->ctx->flush_all();
  }
}

void RtEngine::stop() {
  if (!running_.load()) return;
  // Phase 1: stop timers so sources quiesce. Joining the timer thread also
  // waits out any in-flight callback, which flushes before it returns —
  // after this point no new tuples enter the graph.
  timers_.stop();
  // Phase 2: drain in topological order so upstream emissions land before a
  // downstream worker shuts down. Once a worker's producers have quiesced
  // its push counters are final, so (popped == pushed, then !busy) proves
  // it has processed everything and flushed the results downstream — see
  // DESIGN.md §5h for the ordering argument.
  for (const int v : graph_.topological_order()) {
    Worker& w = *workers_[static_cast<std::size_t>(v)];
    while (!worker_drained(w)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Phase 3: shut workers down. Wake parked consumers so they observe
  // !running_ over drained rings and exit, and any producer still parked on
  // backpressure (cannot normally happen after the drain — belt and
  // braces for crash drills).
  running_.store(false);
  for (auto& w : workers_) {
    w->items_ec.notify();
    w->space_ec.notify();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  helpers_->wait_idle();
}

void RtEngine::push_slot(InEdge& e, Slot&& slot, std::size_t units,
                         bool urgent) {
  if (!running_.load(std::memory_order_acquire)) {
    // Stopped engine: recovery preload (replay_downstream). The consumer's
    // worker thread adopts these ahead of live traffic on the next start.
    e.preload.push_back(std::move(slot));
    e.preload_pending.store(e.preload.size(), std::memory_order_release);
    return;
  }
  Worker& c = *workers_[static_cast<std::size_t>(e.consumer)];
  const std::uint64_t pushed = e.tuples_pushed.load(std::memory_order_relaxed);
  std::uint64_t popped = e.tuples_popped.load(std::memory_order_acquire);
  if (pushed - popped >= config_.queue_capacity) {
    wait_for_space(e, c, pushed);
    if (!running_.load(std::memory_order_acquire)) {
      // Torn down mid-wait: preserve the slot for the next start, exactly
      // like the mutexed transport's unbounded escape push did.
      e.preload.push_back(std::move(slot));
      e.preload_pending.store(e.preload.size(), std::memory_order_release);
      return;
    }
    popped = e.tuples_popped.load(std::memory_order_acquire);
  }
  const bool fit = e.ring.try_push(std::move(slot));
  MS_CHECK_MSG(fit, "rt transport ring overfull (slots undersized?)");
  e.tuples_pushed.store(pushed + units, std::memory_order_release);
  // Wake policy. Tokens (urgent) and the per-tuple path (threshold 1)
  // notify on every push: with no batch buffers there is no flush_all
  // backstop for a crossing misjudged through a stale `popped`. Batched
  // pushes notify only on the upward crossing of the threshold, one wake per
  // half-queue, so a parked-but-unscheduled consumer costs one syscall. A
  // crossing missed through a stale `popped` cannot strand the consumer:
  // flush_port's dirty bit forces a notify at the producer's next flush_all,
  // and a producer about to park notifies first in wait_for_space().
  if (urgent || wake_threshold_ == 1 ||
      (pushed - popped < wake_threshold_ &&
       pushed + units - popped >= wake_threshold_)) {
    wake(c.items_armed, c.items_ec);
  }
}

void RtEngine::wait_for_space(InEdge& e, Worker& c, std::uint64_t pushed) {
  // Never park behind a consumer that has not been woken.
  wake(c.items_armed, c.items_ec);
  if (c.queue_depth != nullptr) {
    c.queue_depth->set(static_cast<double>(queue_depth_now(c)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto may_proceed = [&] {
    return pushed - e.tuples_popped.load(std::memory_order_acquire) <
               config_.queue_capacity ||
           !running_.load(std::memory_order_acquire);
  };
  // Spin first: the consumer frees a whole burst of capacity at once, so
  // the common stall is far shorter than a park/unpark round trip
  // (multi-core only).
  for (int spin = spin_before_park(); spin > 0 && !may_proceed(); --spin) {
    cpu_relax();
  }
  for (;;) {
    // Register, then arm (see worker_loop's park for why not the reverse).
    const EventCount::Key key = c.space_ec.prepare_wait();
    c.space_armed.store(true, std::memory_order_seq_cst);
    if (may_proceed()) {
      c.space_ec.cancel_wait();
      break;
    }
    c.space_ec.wait(key);
  }
  if (c.enqueue_wait != nullptr) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    c.enqueue_wait->record(SimTime::nanos(ns));
  }
}

std::size_t RtEngine::queue_depth_now(const Worker& w) const {
  std::uint64_t depth = 0;
  for (const auto& e : w.in_edges) {
    const std::uint64_t pushed =
        e->tuples_pushed.load(std::memory_order_relaxed);
    const std::uint64_t popped =
        e->tuples_popped.load(std::memory_order_relaxed);
    if (pushed > popped) depth += pushed - popped;  // unsynchronized snapshot
  }
  return static_cast<std::size_t>(depth);
}

bool RtEngine::edges_idle(const Worker& w) const {
  for (const auto& e : w.in_edges) {
    if (e->tuples_popped.load(std::memory_order_relaxed) !=
        e->tuples_pushed.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

bool RtEngine::worker_drained(const Worker& w) const {
  for (const auto& e : w.in_edges) {
    if (e->preload_pending.load(std::memory_order_acquire) != 0) return false;
    if (e->tuples_popped.load(std::memory_order_acquire) !=
        e->tuples_pushed.load(std::memory_order_acquire)) {
      return false;
    }
  }
  // Read busy strictly after the counters: if the worker is mid-pass, the
  // pop that made the counters match was preceded (release chain) by its
  // busy=true store, so a matching-counters read here cannot observe a
  // stale busy=false from an earlier park.
  return !w.busy.load(std::memory_order_acquire);
}

void RtEngine::bump_counters(Worker& w, std::int64_t done) {
  if (done <= 0) return;
  w.processed.fetch_add(done, std::memory_order_relaxed);
  if (w.is_sink) sink_tuples_.fetch_add(done, std::memory_order_relaxed);
  if (m_tuples_ != nullptr) {
    m_tuples_->add(done);
    if (w.is_sink) m_sink_tuples_->add(done);
  }
}

void RtEngine::process_slot(Worker& w, InEdge* e, Slot& slot,
                            std::int64_t& done) {
  // Caller holds w.op_mu (burst-granular): exclusion against timer-thread
  // callbacks covers process(), token alignment, and the snapshot
  // serialize.
  RtContext& ctx = *w.ctx;
  if (auto* batch = std::get_if<std::vector<core::Tuple>>(&slot)) {
    for (const auto& tuple : *batch) {
      w.op->process(e->in_port, tuple, ctx);
    }
    done += static_cast<std::int64_t>(batch->size());
    batch->clear();
    // Hand the drained carrier straight back to this edge's producer
    // (lock-free, cache-warm). On overflow it stays in the ring slot and is
    // freed when pop_front() retires the entry.
    (void)e->carriers.try_push(std::move(*batch));
    return;
  }
  if (const auto* token = std::get_if<core::Token>(&slot)) {
    // Token alignment. Rings are FIFO per edge, so marking per-port
    // arrival gives the same boundary as head-blocking: every pre-token
    // tuple on that edge has already been dequeued — entries behind the
    // token are processed after the snapshot, exactly as if they were
    // still queued.
    emit_proto(ProtoPoint::kTokenArrived, w.id, token->checkpoint_id);
    if (w.num_in_ports > 0) {
      MS_CHECK_MSG(!w.token_seen[static_cast<std::size_t>(e->in_port)],
                   "duplicate token on one edge within an epoch");
      w.token_seen[static_cast<std::size_t>(e->in_port)] = true;
    }
    if (++w.tokens == std::max(1, w.num_in_ports)) {
      std::fill(w.token_seen.begin(), w.token_seen.end(), false);
      w.tokens = 0;
      emit_proto(ProtoPoint::kAligned, w.id, token->checkpoint_id);
      // Flush barrier: everything this operator emitted before the token
      // must reach downstream rings ahead of the forwarded token, or a
      // checkpoint taken mid-batch would miss in-buffer tuples.
      ctx.flush_all();
      snapshot_and_forward_token(w, *token);
    }
    return;
  }
  w.op->process(e->in_port, std::get<core::Tuple>(slot), ctx);
  ++done;
}

void RtEngine::worker_loop(Worker& w) {
  // Recovery preload: entries pushed while the engine was stopped are
  // strictly older than anything a live producer can send — process them
  // before touching the rings (per-edge FIFO across restarts).
  for (auto& eptr : w.in_edges) {
    InEdge& e = *eptr;
    if (e.preload_pending.load(std::memory_order_acquire) == 0) continue;
    std::vector<Slot> pre = std::move(e.preload);
    e.preload.clear();
    std::int64_t done = 0;
    {
      std::scoped_lock op_lock(w.op_mu);
      for (Slot& s : pre) process_slot(w, &e, s, done);
    }
    e.preload_pending.store(0, std::memory_order_release);
    bump_counters(w, done);
  }
  for (;;) {
    std::int64_t done = 0;
    bool popped_any = false;
    for (auto& eptr : w.in_edges) {
      InEdge& e = *eptr;
      Slot* s = e.ring.front();
      if (s == nullptr) continue;
      std::uint64_t popped = e.tuples_popped.load(std::memory_order_relaxed);
      std::size_t burst = 0;
      {
        // One op_mu acquisition per burst, entries processed in place. Each
        // entry's tuple count is published before it is processed (capacity
        // frees early); pop_front() frees its ring slot only after.
        std::scoped_lock op_lock(w.op_mu);
        do {
          popped += slot_units(*s);
          e.tuples_popped.store(popped, std::memory_order_release);
          process_slot(w, &e, *s, done);
          e.ring.pop_front();
          ++burst;
        } while (burst < kMaxDrainPerEdge && (s = e.ring.front()) != nullptr);
      }
      popped_any = true;
      wake(w.space_armed, w.space_ec);  // capacity freed; wake producers
    }
    bump_counters(w, done);
    {
      // Operator-return flush: never sit on buffered output while waiting
      // for more input (bounds latency and keeps the drain protocol
      // honest). Under op_mu: this thread shares the out-edge producer
      // role with the timer thread.
      std::scoped_lock op_lock(w.op_mu);
      w.ctx->flush_all();
    }
    if (w.queue_depth != nullptr) {
      w.queue_depth->set(static_cast<double>(queue_depth_now(w)));
    }
    if (popped_any) continue;
    // Spin briefly before parking — a momentarily empty ring usually
    // refills within the producer's next flush interval (multi-core only).
    bool replenished = false;
    for (int spin = spin_before_park(); spin > 0; --spin) {
      cpu_relax();
      if (!edges_idle(w)) {
        replenished = true;
        break;
      }
    }
    if (replenished) continue;
    // Idle: publish quiescence — busy=false only after everything popped
    // has been processed *and* flushed — then park with the standard
    // eventcount re-check so a concurrent push is never lost.
    // Register with the eventcount *before* arming the flag: a waker that
    // wins the flag then always finds this thread registered and bumps the
    // epoch. Armed first, a waker with nothing new could take the flag in
    // between and find no waiter, and a push landing after the re-check
    // below would then see the flag taken and wake nobody — the thread
    // would sleep on a non-empty ring with every later wake suppressed.
    w.busy.store(false, std::memory_order_release);
    wake(w.space_armed, w.space_ec);
    const EventCount::Key key = w.items_ec.prepare_wait();
    w.items_armed.store(true, std::memory_order_seq_cst);
    if (!edges_idle(w)) {
      w.items_ec.cancel_wait();
    } else if (!running_.load(std::memory_order_acquire)) {
      w.items_ec.cancel_wait();
      return;  // stopped and drained
    } else {
      w.items_ec.wait(key);
    }
    w.busy.store(true, std::memory_order_release);
  }
}

void RtEngine::capture_snapshot(Worker& w, std::uint64_t epoch,
                                SnapshotMode mode, SnapshotKind kind) {
  // Serialize on the calling thread (op_mu is held by the caller), deliver
  // per `mode`. The writer adopts a pooled buffer pre-sized by the previous
  // epoch's snapshot, so steady-state serialization performs zero
  // allocations.
  emit_proto(ProtoPoint::kSerializeStart, w.id, epoch);
  const bool delta = kind == SnapshotKind::kDelta && w.op->supports_delta();
  BinaryWriter writer(snapshot_buffers_.acquire(w.last_snapshot_bytes));
  if (delta) {
    w.op->serialize_delta(writer);
  } else {
    w.op->serialize_state(writer);
  }
  // Pin the dirty baseline at this cut while op_mu still excludes mutators:
  // everything serialized above is now "clean"; mutations after this instant
  // belong to the next epoch's delta.
  w.op->mark_checkpointed();
  w.last_snapshot_bytes = writer.size();
  auto blob = std::make_shared<std::vector<std::uint8_t>>(writer.take());
  emit_proto(ProtoPoint::kSerializeDone, w.id, epoch);
  if (m_ckpt_bytes_ != nullptr) {
    m_ckpt_bytes_->record(SimTime::nanos(
        static_cast<std::int64_t>(blob->size())));
  }
  Snapshot snap;
  snap.op = w.id;
  snap.epoch = epoch;
  snap.data = blob->data();
  snap.size = blob->size();
  snap.delta = delta;
  if (w.is_source) {
    // Exact under op_mu: every tapped tuple is flushed ahead of the token
    // (flush barrier + in-lock timer flushes), nothing later is.
    snap.source_boundary = w.tapped;
    snap.source_next_seq = w.next_seq;
  }
  // The epoch's cut is fixed once serialization finished — releasing the
  // alignment slot here (rather than after the sink write) lets the next
  // epoch begin while this one's writes drain, without ever letting two
  // epochs' tokens interleave at an operator.
  align_pending_.fetch_sub(1);
  auto finish = [this](std::vector<std::uint8_t>&& storage) {
    snapshot_buffers_.release(std::move(storage));
  };
  if (mode == SnapshotMode::kSync) {
    // Synchronous delivery: the sink (typically a durable write) completes
    // on this thread before the caller forwards the token — MS-src's
    // write-before-forward, at thread scale.
    if (sink_) sink_(snap);
    finish(std::move(*blob));
    return;
  }
  helpers_->submit([this, snap, blob, finish]() mutable {
    if (sink_) sink_(snap);
    finish(std::move(*blob));
  });
}

void RtEngine::snapshot_and_forward_token(Worker& w, const core::Token& token) {
  const SnapshotMode mode = epoch_mode_;
  const SnapshotKind kind = epoch_kind_;
  if (mode == SnapshotMode::kSync) {
    // Write first, then let the token (and therefore any downstream effect
    // of post-checkpoint processing) move on.
    capture_snapshot(w, token.checkpoint_id, mode, kind);
    for (const OutEdge& oe : w.out_edges) {
      push_slot(*oe.edge, Slot(token), 1, /*urgent=*/true);
    }
    return;
  }
  // Async: snapshot in memory, forward the token immediately, deliver on a
  // helper — processing resumes while the sink write is still in flight.
  for (const OutEdge& oe : w.out_edges) {
    push_slot(*oe.edge, Slot(token), 1, /*urgent=*/true);
  }
  capture_snapshot(w, token.checkpoint_id, mode, kind);
}

Status RtEngine::begin_epoch(std::uint64_t epoch, SnapshotMode mode,
                             SnapshotKind kind) {
  if (!running_.load()) {
    return Status::failed_precondition("begin_epoch: engine not running");
  }
  if (!sink_) {
    return Status::failed_precondition(
        "begin_epoch: no snapshot sink installed");
  }
  int expected = 0;
  if (!align_pending_.compare_exchange_strong(expected,
                                              graph_.num_operators())) {
    return Status::unavailable("begin_epoch: previous epoch still aligning");
  }
  epoch_mode_ = mode;
  epoch_kind_ = kind;
  const core::Token token{epoch, /*one_hop=*/false};
  // Sources have no in-edges: inject the token into their control edges;
  // it trickles down the graph from there. The align_pending_ RMW chain
  // serializes successive epoch starters, so the control edge keeps a
  // single (logical) producer.
  for (auto& w : workers_) {
    if (w->control_edge != nullptr) {
      push_slot(*w->control_edge, Slot(token), 1, /*urgent=*/true);
    }
  }
  return Status::ok();
}

Status RtEngine::restore_operator(int op,
                                  const std::vector<std::uint8_t>& bytes) {
  if (running_.load()) {
    return Status::failed_precondition(
        "restore_operator: engine must be stopped");
  }
  if (op < 0 || op >= num_operators()) {
    return Status::invalid_argument("restore_operator: no such operator");
  }
  Worker& w = *workers_[static_cast<std::size_t>(op)];
  w.op->clear_state();
  if (!bytes.empty()) {
    BinaryReader reader(bytes);
    w.op->deserialize_state(reader);
  }
  return Status::ok();
}

Status RtEngine::apply_operator_delta(int op,
                                      const std::vector<std::uint8_t>& bytes) {
  if (running_.load()) {
    return Status::failed_precondition(
        "apply_operator_delta: engine must be stopped");
  }
  if (op < 0 || op >= num_operators()) {
    return Status::invalid_argument("apply_operator_delta: no such operator");
  }
  if (bytes.empty()) return Status::ok();  // nothing changed that epoch
  Worker& w = *workers_[static_cast<std::size_t>(op)];
  BinaryReader reader(bytes);
  w.op->apply_delta(reader);
  return Status::ok();
}

Status RtEngine::set_source_progress(int op, std::uint64_t next_seq,
                                     std::uint64_t emitted) {
  if (running_.load()) {
    return Status::failed_precondition(
        "set_source_progress: engine must be stopped");
  }
  if (op < 0 || op >= num_operators()) {
    return Status::invalid_argument("set_source_progress: no such operator");
  }
  Worker& w = *workers_[static_cast<std::size_t>(op)];
  if (!w.is_source) {
    return Status::invalid_argument(
        "set_source_progress: operator is not a source");
  }
  w.next_seq = next_seq;
  w.tapped = emitted;
  return Status::ok();
}

Status RtEngine::replay_downstream(int op, int out_port,
                                   std::vector<core::Tuple> batch) {
  // Stopped-only, so the suffix lands in the preload list (see the header).
  if (op < 0 || op >= num_operators()) {
    return Status::invalid_argument("replay_downstream: no such operator");
  }
  Worker& w = *workers_[static_cast<std::size_t>(op)];
  if (out_port < 0 || out_port >= static_cast<int>(w.out_edges.size())) {
    return Status::invalid_argument("replay_downstream: no such out port");
  }
  if (running_.load()) {
    return Status::failed_precondition(
        "replay_downstream: engine must be stopped");
  }
  OutEdge& oe = w.out_edges[static_cast<std::size_t>(out_port)];
  const std::size_t n = batch.size();
  push_slot(*oe.edge, Slot(std::move(batch)), n, /*urgent=*/false);
  return Status::ok();
}

Bytes RtEngine::op_state_size(int op) const {
  Worker& w = *workers_[static_cast<std::size_t>(op)];
  std::scoped_lock op_lock(w.op_mu);
  return w.op->state_size();
}

std::int64_t RtEngine::tuples_processed(int op) const {
  return workers_[static_cast<std::size_t>(op)]->processed.load();
}

}  // namespace ms::rt
