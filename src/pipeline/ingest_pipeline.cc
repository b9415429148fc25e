#include "pipeline/ingest_pipeline.h"

#include <chrono>
#include <string>

#include "obs/timer.h"
#include "util/logging.h"

namespace countlib {
namespace pipeline {

namespace {

/// How long a parked worker sleeps before rechecking its rings. Every push
/// notifies, so this is a liveness guard, not a wake path
/// (`PipelineStats::backstop_rescues` counts what it catches); it also
/// bounds a fully idle worker to ~20 wakes/s.
constexpr std::chrono::milliseconds kIdleSleep(50);

/// Consecutive empty drain passes a worker spins (yielding) before it
/// parks on the wake eventcount: long enough to ride out the gaps of
/// bursty traffic without a park round trip, short enough that an idle
/// worker stops burning CPU almost at once.
constexpr uint64_t kIdleSpinPasses = 64;

/// Submit→apply latency sampling under `enable_metrics`: the events a
/// thread pushes are numbered per thread, and every 2^kLatencySampleShift-th
/// is stamped with the steady clock. `TrySubmitBatch` reads the clock at
/// most once per call, so its cost is per call, not per event.
constexpr uint64_t kLatencySampleShift = 6;
constexpr uint64_t kLatencySampleMask =
    (uint64_t{1} << kLatencySampleShift) - 1;

/// The calling thread's count of pushed events, across every pipeline it
/// submits to (which only dithers the sample's phase, not its rate).
thread_local uint64_t tl_pushed_events = 0;

/// How long a parked producer sleeps before rechecking its ring. Every pop
/// notifies the ring's not-full eventcount, so this too is a liveness guard
/// (counted in `backstop_rescues`). ~50 rechecks/s keeps a producer parked
/// for a full second around 2ms of CPU even on boxes where a timed CV wait
/// costs tens of microseconds.
constexpr std::chrono::milliseconds kSubmitParkBackstop(20);

/// Backstop for waiters parked on the slot registry. Releases and every
/// drain pass that pops notify, so it only guards liveness.
constexpr std::chrono::milliseconds kSlotParkBackstop(50);

/// Backstop for flush waiters. Every drain pass notifies, and `ParkUntil`
/// registers before each predicate check, so it only guards liveness.
constexpr std::chrono::milliseconds kFlushParkBackstop(5);

/// Preallocated results for the hot rejection paths. Backpressure fires
/// exactly when the system is saturated, so the kPending result must not
/// heap-allocate: these are built once and returned by copy (a Status copy
/// is a shared_ptr refcount bump, never an allocation).
const Status& QueueFullStatus() {
  static const Status st =
      Status::Pending("TrySubmit: producer queue full (backpressure)");
  return st;
}

const Status& DrainingStatus() {
  static const Status st =
      Status::FailedPrecondition("IngestPipeline: pipeline is draining");
  return st;
}

const Status& ZeroWeightStatus() {
  static const Status st =
      Status::InvalidArgument("TrySubmit: weight must be positive");
  return st;
}

const Status& NoFreeSlotStatus() {
  static const Status st = Status::Pending(
      "TryAcquireProducerSlot: no free drained slot (retry after backoff)");
  return st;
}

const Status& InvalidHandleStatus() {
  static const Status st =
      Status::FailedPrecondition("ProducerSlot: handle is invalid");
  return st;
}

const Status& PausedFlushStatus() {
  static const Status st = Status::FailedPrecondition(
      "Flush: pipeline is paused (0 workers) with events queued; resume "
      "with SetWorkerCount or let Drain sweep them");
  return st;
}

}  // namespace

Result<std::unique_ptr<IngestPipeline>> IngestPipeline::Make(
    analytics::CounterWriter* store, const PipelineOptions& options) {
  if (store == nullptr) {
    return Status::InvalidArgument("IngestPipeline: store must not be null");
  }
  if (store->num_lanes() == 0) {
    return Status::InvalidArgument("IngestPipeline: store has no lanes");
  }
  if (options.num_producers < 1 || options.num_producers > 4096) {
    return Status::InvalidArgument("IngestPipeline: num_producers in [1, 4096]");
  }
  if (options.num_workers < 1 || options.num_workers > 256) {
    return Status::InvalidArgument("IngestPipeline: num_workers in [1, 256]");
  }
  if (options.num_workers > options.num_producers ||
      options.num_workers > store->num_lanes()) {
    // Worker w drains the rings i % num_workers == w and writes lane w.
    return Status::InvalidArgument(
        "IngestPipeline: num_workers <= num_producers and <= store lanes");
  }
  if (options.max_batch < 1) {
    return Status::InvalidArgument("IngestPipeline: max_batch >= 1");
  }
  if (options.queue_capacity < 2 ||
      options.queue_capacity > (uint64_t{1} << 30)) {
    return Status::InvalidArgument(
        "IngestPipeline: queue_capacity in [2, 2^30]");
  }
  if (options.max_batch > BatchAggregator::kMaxBatch) {
    return Status::InvalidArgument("IngestPipeline: max_batch <= 2^16");
  }
  return std::unique_ptr<IngestPipeline>(new IngestPipeline(store, options));
}

IngestPipeline::IngestPipeline(analytics::CounterWriter* store,
                               const PipelineOptions& options)
    : store_(store), options_(options) {
  rings_.reserve(options_.num_producers);
  for (uint64_t i = 0; i < options_.num_producers; ++i) {
    rings_.push_back(std::make_unique<SpscRing>(options_.queue_capacity));
  }
  nonfull_ecs_ = std::make_unique<EventCount[]>(options_.num_producers);
  slot_leased_.assign(options_.num_producers, 0);
  if (options_.enable_metrics) RegisterMetrics();
  MutexLock lock(&workers_mu_);
  SpawnWorkersLocked(options_.num_workers);
}

void IngestPipeline::RegisterMetrics() {
  obs_ = std::make_unique<ObsState>();
  obs::Registry& reg = obs::Registry::Default();
  std::vector<obs::Registration>& rs = obs_->registrations;
  rs.push_back(reg.RegisterCounter("countlib_pipeline_events_submitted_total",
                                   &submitted_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_events_rejected_total",
                                   &rejected_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_events_applied_total",
                                   &applied_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_events_dropped_total",
                                   &dropped_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_updates_applied_total",
                                   &updates_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_batches_applied_total",
                                   &batches_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_producer_parks_total",
                                   &producer_parks_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_producer_wakeups_total",
                                   &producer_wakeups_));
  rs.push_back(reg.RegisterCounter("countlib_pipeline_backstop_rescues_total",
                                   &backstop_rescues_));
  rs.push_back(reg.RegisterHistogram(
      "countlib_pipeline_submit_apply_latency_ns",
      &obs_->submit_apply_latency));
  rs.push_back(reg.RegisterHistogram("countlib_pipeline_batch_drain_latency_ns",
                                     &obs_->batch_drain_latency));
  rs.push_back(reg.RegisterHistogram("countlib_pipeline_producer_park_ns",
                                     &obs_->producer_park));
  rs.push_back(reg.RegisterHistogram(
      "countlib_pipeline_wakeup_drain_latency_ns",
      &obs_->wakeup_drain_latency));
  // Gauge callbacks run under the registry mutex at sample time; each is a
  // handful of relaxed loads. They capture `this`, which is safe because
  // obs_ (and with it every Registration) dies before any other member.
  rs.push_back(reg.RegisterGauge("countlib_pipeline_queue_depth", [this] {
    double depth = 0;
    for (const auto& ring : rings_) {
      depth += static_cast<double>(ring->SizeApprox());
    }
    return depth;
  }));
  rs.push_back(reg.RegisterGauge("countlib_pipeline_workers", [this] {
    // mo: acquire — same pairing as Stats(): never report a pool size
    // whose spawn has not completed.
    return static_cast<double>(worker_count_.load(std::memory_order_acquire));
  }));
  rs.push_back(reg.RegisterGauge("countlib_pipeline_busy_workers", [this] {
    // mo: acquire — pairs with the workers' busy-count RMWs so the gauge
    // trails the real drain activity, never leads it.
    return static_cast<double>(busy_workers_.load(std::memory_order_acquire));
  }));
  rs.push_back(reg.RegisterGauge("countlib_pipeline_slots_in_use", [this] {
    // mo: relaxed — freestanding gauge cell; nothing is ordered against it.
    return static_cast<double>(slots_in_use_.load(std::memory_order_relaxed));
  }));
  // First-class must-stay-zero invariant: every accepted event is either
  // applied, dropped to a store error, or still sitting in a queue.
  // Transiently nonzero while events are mid-drain (the reads race);
  // exactly zero whenever the pipeline is quiescent (post-Flush/Drain).
  rs.push_back(reg.RegisterGauge("countlib_pipeline_unaccounted_events",
                                 [this] {
    double queued = 0;
    for (const auto& ring : rings_) {
      queued += static_cast<double>(ring->SizeApprox());
    }
    return static_cast<double>(submitted_.Value()) -
           static_cast<double>(applied_.Value()) -
           static_cast<double>(dropped_.Value()) - queued;
  }));
}

IngestPipeline::~IngestPipeline() {
  // A destructor cannot propagate the drain status; surface it instead of
  // silently dropping events that never reached the store.
  Status st = Drain();
  if (!st.ok()) {
    COUNTLIB_LOG(Error) << "IngestPipeline::~IngestPipeline: final drain "
                           "failed: "
                        << st.ToString();
  }
}

void IngestPipeline::SpawnWorkersLocked(uint64_t n) {
  // mo: acquire — reads the generation the last pause (if any) published;
  // the spawned workers compare against this snapshot.
  const uint64_t gen = worker_gen_.load(std::memory_order_acquire);
  workers_.reserve(n);
  for (uint64_t w = 0; w < n; ++w) {
    workers_.emplace_back([this, w, gen] { WorkerLoop(w, gen); });
  }
  // mo: release — publishes the fully spawned pool to Stats() / gauge
  // readers (paired acquire loads).
  worker_count_.store(n, std::memory_order_release);
}

// HOTPATH: the non-blocking submit probe — one Drain handshake, one ring
// publish and at most one worker wake per call; every rejection result is
// preallocated and no path below may heap-allocate.
Status IngestPipeline::TrySubmitBatch(uint64_t producer,
                                      const analytics::KeyWeight* updates,
                                      size_t n, size_t* accepted) {
  if (accepted != nullptr) *accepted = 0;
  // Validate the whole batch before enqueuing any of it, so a bad record
  // rejects its batch (the net server's frame) as a unit.
  for (size_t i = 0; i < n; ++i) {
    if (updates[i].weight == 0) return ZeroWeightStatus();
  }
  if (n == 0) return Status::OK();
  // Refcount handshake with Drain: the count is raised before the closed_
  // check, and Drain waits for it to hit zero after setting closed_, so
  // every push that slips past the check happens-before the final sweep —
  // an OK from TrySubmitBatch can never strand an event. Both sides of the
  // handshake (this RMW + load, Drain's store + load) must be seq_cst:
  // it is a Dekker-style protocol, and weaker orderings allow the
  // submitter to read stale closed_ while Drain reads a stale zero count.
  // mo: seq_cst — the refcount raise half of the Dekker handshake above.
  active_submitters_.fetch_add(1, std::memory_order_seq_cst);
  // mo: seq_cst — the closed_ probe half of the same handshake.
  if (closed_.load(std::memory_order_seq_cst)) {
    // mo: release — the bail-out drop publishes nothing, but release keeps
    // Drain's acquire-side count read from hoisting past prior work.
    active_submitters_.fetch_sub(1, std::memory_order_release);
    return DrainingStatus();
  }
  uint64_t pushed = 0;
  if (obs_ == nullptr) {
    pushed = rings_[producer]->TryPushBatch(n, [updates](uint64_t i) {
      return Event{updates[i].key, updates[i].weight, 0};
    });
  } else {
    // Event i of this call is the thread's (seq + i + 1)-th push; those
    // numbered by a multiple of 64 are stamped. One tail store publishes
    // the whole call, so one clock read dates every stamp in it exactly.
    const uint64_t seq = tl_pushed_events;
    const uint64_t first_stamp =
        kLatencySampleMask - (seq & kLatencySampleMask);
    const uint64_t now = first_stamp < n ? obs::NowNanos() : 0;
    pushed = rings_[producer]->TryPushBatch(n, [updates, seq, now](uint64_t i) {
      const bool stamped = ((seq + i + 1) & kLatencySampleMask) == 0;
      return Event{updates[i].key, updates[i].weight, stamped ? now : 0};
    });
    tl_pushed_events = seq + pushed;
  }
  // mo: release — orders the ring push before the count drop, so Drain's
  // zero observation proves every slipped-past push has completed.
  active_submitters_.fetch_sub(1, std::memory_order_release);
  if (accepted != nullptr) *accepted = pushed;
  if (pushed > 0) {
    submitted_.Add(pushed);
    // Every push notifies: the epoch bump after the publish makes a parked
    // worker's wake exact (util/event_count.h). With no worker parked it is
    // one RMW and one load, no mutex and no CV.
    if (obs_ != nullptr && wake_ec_.HasWaiters()) {
      // Stamp the notify so the woken worker can record wakeup→drain
      // latency; the gate keeps the clock read off pushes nobody waits on.
      // mo: relaxed — best-effort telemetry stamp; a torn or lost race only
      // skews one histogram sample.
      last_wake_notify_ns_.store(obs::NowNanos(), std::memory_order_relaxed);
    }
    wake_ec_.NotifyIfWaiters();
  }
  if (pushed < n) {
    rejected_.Add(1);
    return QueueFullStatus();
  }
  return Status::OK();
}

Status IngestPipeline::SubmitBatch(uint64_t producer,
                                   const analytics::KeyWeight* updates,
                                   size_t n) {
  // One park-episode loop on the ring's own not-full eventcount: snapshot
  // the epoch, try the rest of the batch, park on the snapshot. Every pop
  // from this ring bumps the epoch after freeing space, so a pop after the
  // snapshot ends the park or skips it (util/event_count.h).
  EventCount& nonfull = nonfull_ecs_[producer];
  size_t done = 0;
  bool timed_out = false;  // the last park ran out kSubmitParkBackstop
  uint64_t epoch = 0;
  while (true) {
    const uint64_t parked_epoch = epoch;
    epoch = nonfull.Epoch();
    size_t accepted = 0;
    Status st = TrySubmitBatch(producer, updates + done, n - done, &accepted);
    done += accepted;
    // Room that no pop announced: the backstop, not a notify, ended the wait.
    if (timed_out && accepted > 0 && epoch == parked_epoch) {
      backstop_rescues_.Add(1);
    }
    if (!st.IsPending()) return st;
    producer_parks_.Add(1);
    const uint64_t park_start_ns = obs_ == nullptr ? 0 : obs::NowNanos();
    const bool signaled = nonfull.ParkOne(
        // mo: acquire — cancel probe; pairs with Drain's closed_ publish
        // so a canceled park returns into the kFailedPrecondition path.
        epoch, [this] { return closed_.load(std::memory_order_acquire); },
        kSubmitParkBackstop);
    if (obs_ != nullptr) {
      // Parking is already the slow path; a clock read per park episode
      // is noise next to the park itself.
      obs_->producer_park.Record(obs::NowNanos() - park_start_ns);
    }
    if (signaled) producer_wakeups_.Add(1);
    timed_out = !signaled;
  }
}

Result<ProducerSlot> IngestPipeline::TryAcquireProducerSlot() {
  MutexLock lock(&slots_mu_);
  // mo: acquire — pairs with Drain's seq_cst closed_ store; once seen, no
  // new lease is issued.
  if (closed_.load(std::memory_order_acquire)) return DrainingStatus();
  for (uint64_t i = 0; i < rings_.size(); ++i) {
    // Drained-before-reuse: a slot whose previous holder left events
    // behind stays unavailable until the workers have popped them all off
    // the queue, so a fresh lease always starts with the slot's full
    // capacity. (Popped, not applied: the last batch may still be in
    // flight to the store — no cross-lease apply ordering is implied.)
    if (!slot_leased_[i] && rings_[i]->SizeApprox() == 0) {
      slot_leased_[i] = 1;
      // mo: relaxed — gauge cell only; the lease itself is under slots_mu_.
      slots_in_use_.fetch_add(1, std::memory_order_relaxed);
      return ProducerSlot(this, i);
    }
  }
  return NoFreeSlotStatus();
}

Result<ProducerSlot> IngestPipeline::AcquireProducerSlot() {
  // Park-episode loop on the registry eventcount: snapshot the epoch,
  // rescan via TryAcquireProducerSlot, park on the snapshot. A release (or
  // a drain pass that pops) after the snapshot bumps the epoch, so the
  // park is skipped or ended immediately.
  while (true) {
    const uint64_t epoch = slots_ec_.Epoch();
    Result<ProducerSlot> slot = TryAcquireProducerSlot();
    if (!slot.status().IsPending()) return slot;
    slots_ec_.ParkOne(
        // mo: acquire — cancel probe, pairs with Drain's closed_ publish.
        epoch, [this] { return closed_.load(std::memory_order_acquire); },
        kSlotParkBackstop);
  }
}

void IngestPipeline::ReleaseProducerSlot(uint64_t slot) {
  {
    MutexLock lock(&slots_mu_);
    if (slot >= slot_leased_.size() || !slot_leased_[slot]) return;
    slot_leased_[slot] = 0;
    // mo: relaxed — gauge cell; lease state is under slots_mu_.
    slots_in_use_.fetch_sub(1, std::memory_order_relaxed);
  }
  slots_ec_.NotifyIfWaiters();
}

Status IngestPipeline::SetWorkerCount(uint64_t n) {
  if (n != 0 && n != options_.num_workers) {
    return Status::InvalidArgument(
        "SetWorkerCount: n is 0 (pause) or num_workers (resume)");
  }
  MutexLock lock(&workers_mu_);
  // mo: acquire — refuse pause and resume once Drain has published closed_.
  if (closed_.load(std::memory_order_acquire)) return DrainingStatus();
  if (n == workers_.size()) return Status::OK();
  // Retire the current generation (none while paused) and join it, then
  // spawn n workers. The join is the happens-before edge that hands worker
  // w's rings and store lane w to its successor. Producers keep submitting
  // throughout — queued events wait for the next generation (or Drain's
  // sweep), and no accepted event is dropped.
  // mo: seq_cst — the retirement bump must order with the workers' parked
  // predicate reads so no worker sleeps through its own retirement.
  worker_gen_.fetch_add(1, std::memory_order_seq_cst);
  wake_ec_.NotifyIfWaiters();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  SpawnWorkersLocked(n);
  return Status::OK();
}

uint64_t IngestPipeline::DrainOnce(const std::vector<uint64_t>& ring_ids,
                                   uint64_t start_ring, uint64_t lane,
                                   std::vector<Event>* raw,
                                   BatchAggregator* agg) {
  busy_workers_.fetch_add(1);
  // One clock read per pass when instrumented; the matching end read
  // happens only for passes that consumed events (idle passes are
  // counted, not timed).
  const uint64_t pass_start_ns = obs_ == nullptr ? 0 : obs::NowNanos();
  // `raw` stays sized at max_batch; `count` tracks the fill so idle passes
  // touch no buffer memory at all. The scan starts at a different ring
  // each pass so a saturated early ring cannot starve the later ones.
  uint64_t count = 0;
  const size_t start = start_ring % ring_ids.size();
  for (size_t i = 0; i < ring_ids.size(); ++i) {
    if (count == options_.max_batch) break;
    const uint64_t id = ring_ids[(start + i) % ring_ids.size()];
    const uint64_t n =
        rings_[id]->PopBatch(raw->data() + count, options_.max_batch - count);
    count += n;
    // Every pop notifies the ring's not-full eventcount, deliberately before
    // the store apply below: the space is free from the pop on, and the
    // apply can be comparatively long.
    if (n > 0) nonfull_ecs_[id].NotifyIfWaiters();
  }
  if (count > 0) {
    // Pre-aggregate duplicate keys: under a Zipfian event stream most of a
    // batch lands on few hot keys, so this collapses the per-event
    // deserialize/serialize work into one store update per distinct key.
    const size_t updates = agg->Fold(raw->data(), count);
    Status st = store_->IncrementBatch(lane, agg->batch(), updates);
    // One clock read dates both the apply that made the batch visible and
    // the end of this pass.
    const uint64_t now = obs_ == nullptr ? 0 : obs::NowNanos();
    if (st.ok()) {
      applied_.Add(count);
      updates_.Add(updates);
      batches_.Add(1);
      if (obs_ != nullptr) {
        // Submit→apply latency for the stamped subset of this batch. Both
        // ends are steady-clock reads, so now >= ts.
        for (uint64_t i = 0; i < count; ++i) {
          const uint64_t ts = (*raw)[i].ts;
          if (ts != 0) obs_->submit_apply_latency.Record(now - ts);
        }
      }
    } else {
      dropped_.Add(count);
      RecordError(st);
    }
    if (obs_ != nullptr) {
      obs_->batch_drain_latency.Record(now - pass_start_ns);
    }
  }
  busy_workers_.fetch_sub(1);
  // Post-pass signals: the busy_workers_ decrement above may complete a
  // Flush, and a consumed batch may have emptied a ring a slot acquirer
  // waits on. Neither is gated on HasWaiters(): a waiter registering just
  // after that check would sleep out its backstop.
  flush_ec_.NotifyIfWaiters();
  if (count > 0) slots_ec_.NotifyIfWaiters();
  return count;
}

void IngestPipeline::WorkerLoop(uint64_t w, uint64_t gen) {
  // Round-robin ring ownership, fixed at Make; each ring has exactly one
  // consumer (SPSC) because generations never overlap (a pause joins one
  // generation before a resume spawns the next).
  std::vector<uint64_t> owned;
  for (uint64_t i = w; i < rings_.size(); i += options_.num_workers) {
    owned.push_back(i);
  }
  std::vector<Event> raw(options_.max_batch);
  BatchAggregator agg(options_.max_batch);
  const auto nothing_pending = [this, &owned] {
    for (uint64_t id : owned) {
      if (rings_[id]->SizeApprox() != 0) return false;
    }
    return true;
  };
  uint64_t idle_streak = 0;
  uint64_t pass = 0;
  while (true) {
    // Retired by a pause: exit immediately; queued events are picked up
    // by the successor generation (or Drain's final sweep).
    // mo: acquire — pairs with the pause's seq_cst retirement bump.
    if (worker_gen_.load(std::memory_order_acquire) != gen) return;
    // Load stop BEFORE draining: once stop_ is set the queues are closed,
    // so a subsequent empty pass proves the owned rings are fully drained.
    // mo: acquire — pairs with Drain's release store; once stop_ is seen,
    // the queues are closed and an empty pass is proof of full drain.
    const bool saw_stop = stop_.load(std::memory_order_acquire);
    // Worker w's single-writer store lane is w (see the file comment).
    const uint64_t n = DrainOnce(owned, pass++, w, &raw, &agg);
    if (n > 0) {
      idle_streak = 0;
      continue;
    }
    if (saw_stop) return;
    idle_passes_.Add(1);
    if (++idle_streak < kIdleSpinPasses) {
      std::this_thread::yield();
      continue;
    }
    // Eventcount park: snapshot the epoch, recheck the rings, then sleep
    // until the epoch moves (a push, shutdown, or pause). Every push bumps
    // the epoch after publishing, so a push that lands after the snapshot
    // ends the park or skips it.
    const uint64_t epoch = wake_ec_.Epoch();
    if (!nothing_pending()) continue;
    const bool signaled = wake_ec_.ParkOne(
        epoch,
        [&] {
          // mo: acquire ×2 — cancel probes for shutdown and retirement;
          // pair with Drain's release store and the pause's seq_cst bump.
          return stop_.load(std::memory_order_acquire) ||
                 worker_gen_.load(std::memory_order_acquire) != gen;
        },
        kIdleSleep);
    // Events that no push announced: the backstop caught a missed wake.
    if (!signaled && !nothing_pending() && wake_ec_.Epoch() == epoch) {
      backstop_rescues_.Add(1);
    }
    if (signaled) {
      worker_wakeups_.Add(1);
      if (obs_ != nullptr) {
        // Wakeup→drain latency: producer's notify stamp → now, with the
        // drain starting on the next loop iteration. Concurrent notifies
        // overwrite the stamp, so under a wake storm this reads the
        // latest notify — a conservative (smaller) latency, never a
        // stale-inflated one.
        // mo: relaxed — telemetry stamp, tolerates raciness by design.
        const uint64_t notified = last_wake_notify_ns_.load(
            std::memory_order_relaxed);
        const uint64_t now = obs::NowNanos();
        if (notified != 0 && now > notified) {
          obs_->wakeup_drain_latency.Record(now - notified);
        }
      }
    }
  }
}

Status IngestPipeline::Flush() {
  // Quiesce predicate, queues first and busy count second: a worker marks
  // itself busy before popping, so "all rings empty, nobody busy" proves
  // every event accepted before this call has been applied.
  const auto quiesced = [this] {
    for (const auto& ring : rings_) {
      if (ring->SizeApprox() != 0) return false;
    }
    // mo: acquire — a zero busy count must not be read ahead of the ring
    // emptiness checks above; workers raise the count before popping.
    return busy_workers_.load(std::memory_order_acquire) == 0;
  };
  // Workers notify flush_ec_ after each drain pass while a waiter is
  // registered; ParkUntil registers before the first predicate check so
  // the completing pass is never missed. The short backstop covers the
  // registration race and parked-worker corner cases.
  Status result = Status::OK();
  flush_ec_.ParkUntil(
      [&] {
        if (quiesced()) return true;
        // Paused pipeline (SetWorkerCount(0)) with a backlog: no worker
        // will ever make progress, so fail fast instead of hanging. Once
        // draining has begun the worker count is also 0, but Drain's final
        // sweep is the consumer then — keep waiting and let it finish.
        // mo: acquire ×2 — pool gauge and closed_ flag; both only need to
        // be no staler than their publishers' release/seq_cst stores.
        if (worker_count_.load(std::memory_order_acquire) == 0 &&
            !closed_.load(std::memory_order_acquire)) {
          result = PausedFlushStatus();
          return true;
        }
        return false;
      },
      kFlushParkBackstop);
  if (!result.ok()) return result;
  return LastError();
}

Status IngestPipeline::Drain() {
  std::call_once(drain_once_, [this] {
    // mo: seq_cst — the close half of the Dekker handshake with
    // TrySubmit's refcount raise.
    closed_.store(true, std::memory_order_seq_cst);
    // Release acquirers blocked on the slot registry and producers parked
    // on the not-full eventcounts: they observe closed_ and return
    // kFailedPrecondition.
    slots_ec_.NotifyIfWaiters();
    for (uint64_t i = 0; i < rings_.size(); ++i) {
      nonfull_ecs_[i].NotifyIfWaiters();
    }
    // Wait out in-flight TrySubmit calls: once the count is zero, any
    // submitter that passed the closed_ check has finished its push, so the
    // sweep below observes every accepted event. seq_cst pairs with the
    // seq_cst RMW/load in TrySubmit (Dekker handshake).
    // mo: seq_cst — the count probe half of the same handshake.
    while (active_submitters_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    // mo: release — publishes "queues closed" to the workers' acquire
    // loads; an empty pass after this is proof of full drain.
    stop_.store(true, std::memory_order_release);
    wake_ec_.NotifyIfWaiters();  // wake parked workers so they observe stop_
    {
      MutexLock lock(&workers_mu_);
      for (std::thread& t : workers_) t.join();
      workers_.clear();
      // mo: release — gauge publish, paired with Stats()'s acquire.
      worker_count_.store(0, std::memory_order_release);
    }
    // Workers exit only after an empty pass, but sweep once more so
    // nothing a submitter racing the shutdown slipped in is stranded.
    // The sweep reuses the workers' aggregate-then-batch path so stats and
    // slot-rewrite costs stay consistent; DrainOnce's busy_workers_ raise
    // makes it visible to a concurrent Flush. Its scratch is allocated
    // once, so a sweep of many batches allocates no more than one of a
    // single batch.
    std::vector<uint64_t> all_rings(rings_.size());
    for (uint64_t i = 0; i < all_rings.size(); ++i) all_rings[i] = i;
    std::vector<Event> raw(options_.max_batch);
    BatchAggregator agg(options_.max_batch);
    uint64_t pass = 0;
    // Lane 0 is safe here: every worker has been joined above, so the
    // sweep is the only store writer (the join is the happens-before edge
    // that hands lane 0 to this thread).
    while (DrainOnce(all_rings, pass++, 0, &raw, &agg) > 0) {
    }
    drain_result_ = LastError();
  });
  return drain_result_;
}

PipelineStats IngestPipeline::Stats() const {
  PipelineStats stats;
  stats.events_submitted = submitted_.Value();
  stats.events_rejected = rejected_.Value();
  stats.events_applied = applied_.Value();
  stats.events_dropped = dropped_.Value();
  stats.updates_applied = updates_.Value();
  stats.batches_applied = batches_.Value();
  // mo: acquire — pool gauge, paired with the spawn/join release stores.
  stats.workers = worker_count_.load(std::memory_order_acquire);
  // mo: relaxed — freestanding gauge cell.
  stats.slots_in_use = slots_in_use_.load(std::memory_order_relaxed);
  stats.producer_parks = producer_parks_.Value();
  stats.producer_wakeups = producer_wakeups_.Value();
  stats.backstop_rescues = backstop_rescues_.Value();
  stats.idle_passes = idle_passes_.Value();
  stats.worker_wakeups = worker_wakeups_.Value();
  for (const auto& ring : rings_) stats.queue_depth += ring->SizeApprox();
  return stats;
}

Status IngestPipeline::LastError() const {
  MutexLock lock(&error_mu_);
  return first_error_;
}

void IngestPipeline::RecordError(const Status& st) {
  MutexLock lock(&error_mu_);
  if (first_error_.ok()) first_error_ = st;
}

Status ProducerSlot::TrySubmitBatch(const analytics::KeyWeight* updates,
                                    size_t n, size_t* accepted) {
  if (pipeline_ == nullptr) {
    if (accepted != nullptr) *accepted = 0;
    return InvalidHandleStatus();
  }
  return pipeline_->TrySubmitBatch(slot_, updates, n, accepted);
}

Status ProducerSlot::SubmitBatch(const analytics::KeyWeight* updates,
                                 size_t n) {
  if (pipeline_ == nullptr) return InvalidHandleStatus();
  return pipeline_->SubmitBatch(slot_, updates, n);
}

Status ProducerSlot::TrySubmit(uint64_t key, uint64_t weight) {
  const analytics::KeyWeight update{key, weight};
  return TrySubmitBatch(&update, 1);
}

Status ProducerSlot::Submit(uint64_t key, uint64_t weight) {
  const analytics::KeyWeight update{key, weight};
  return SubmitBatch(&update, 1);
}

uint64_t ProducerSlot::QueueDepth() const {
  return pipeline_ == nullptr ? 0 : pipeline_->rings_[slot_]->SizeApprox();
}

void ProducerSlot::Release() {
  if (pipeline_ == nullptr) return;
  pipeline_->ReleaseProducerSlot(slot_);
  pipeline_ = nullptr;
}

}  // namespace pipeline
}  // namespace countlib
