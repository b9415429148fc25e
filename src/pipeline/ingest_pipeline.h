/// \file ingest_pipeline.h
/// \brief Asynchronous batched ingestion between event producers and a
/// `CounterWriter` store — the serving path of the paper's §1 analytics
/// system.
///
/// Producers lease private bounded SPSC queues (`ProducerSlot`) and submit
/// through a non-blocking `TrySubmitBatch` that reports `kPending`
/// backpressure (the FASTER-style OK/Pending status model) instead of ever
/// blocking the write path on a store lock. A batch — the net server hands
/// over each wire frame whole — costs one `Drain` handshake, one ring
/// publish and at most one worker wake, however many events it carries;
/// `TrySubmit`/`Submit` are the one-update case of the same path.
/// Background workers drain the queues, **pre-aggregate
/// duplicate keys within each batch** — one packed-slot
/// deserialize/serialize per *distinct* key instead of per event, which is
/// exactly where the store's cycles go under a Zipfian workload — and apply
/// the result through `CounterWriter::IncrementBatch(lane, ...)`. The fold
/// runs in a flat table each worker allocates once (`BatchAggregator`,
/// batch_aggregator.h) and writes the store batch in place, so once a
/// batch's keys are indexed a whole drain pass allocates nothing.
///
/// ## Lanes: worker w writes lane w
///
/// The store contract (analytics/store_interface.h) makes each lane a
/// single-writer channel. The pipeline satisfies it structurally: the pool
/// is fixed at `Make`, and for the pipeline's whole life worker `w` drains
/// the rings i with i % num_workers == w and submits only through lane
/// `w`. Worker generations never overlap (a pause joins one generation
/// before a resume spawns the next, and the join is the happens-before
/// edge to worker `w`'s successor), and `Drain`'s final sweep runs after
/// every worker has been joined, so its use of lane 0 cannot race a
/// worker. Against a `ShardedCounterStore` this means the whole drain path
/// is lock-free: each worker writes its own private shard and never
/// touches another worker's cache lines. `Make` rejects more workers than
/// producer slots or store lanes.
///
/// Lifecycle: `Make` starts the workers; `Flush` quiesces (everything
/// accepted so far is applied); `Drain` closes submission, flushes, and
/// stops the workers — it is idempotent, and the destructor calls it.
///
/// ## Producer slots: registry leases
///
/// A producer slot is single-threaded at any instant (SPSC); different
/// slots are fully concurrent. A producer honors that contract by leasing:
/// `AcquireProducerSlot()` (blocking) or `TryAcquireProducerSlot()`
/// (non-blocking) returns an RAII `ProducerSlot` handle, and every submit
/// goes through it — the pipeline has no other way in. The registry hands
/// a slot to at most one holder at a time, and re-issues a released slot
/// only after its queue has been fully drained, so every lease starts with
/// the slot's whole capacity. A fixed thread set leases once per thread;
/// thread pools whose membership changes lease per task (the FASTER-style
/// "sessions come and go" reality).
///
/// ## Parking: one `EventCount`, four waiters, exact wakes
///
/// Every blocking wait in the pipeline rides the shared
/// `countlib::EventCount` primitive (util/event_count.h) — epoch cell +
/// waiter count + mutex/CV, notify-only-when-waited, bounded-backstop
/// sleeps. Every notifier calls `NotifyIfWaiters()` after each state change
/// a waiter can wait on, and every waiter snapshots the epoch (or, in
/// `ParkUntil`, registers) before it rechecks its condition, so by the
/// eventcount's Dekker contract no wakeup is lost and each backstop only
/// guards liveness. `PipelineStats::backstop_rescues` counts the worker and
/// producer parks whose backstop found work that no notify announced; it
/// must stay 0. Four instances, one per waiter population:
///
///  - **Worker wake** (`wake_ec_`): every nonzero push notifies after its
///    ring publish — one RMW and one load when no worker is parked. An idle
///    worker spins a fixed number of empty passes, then snapshots the
///    epoch, rechecks its rings, and parks.
///  - **Producer not-full** (`nonfull_ecs_`, one per ring): every nonzero
///    pop notifies its ring's eventcount before the store apply, and a
///    blocking `SubmitBatch` that finds no room parks there at once. A pop
///    wakes only its own ring's producer.
///  - **Flush** (`flush_ec_`): flush waiters park until the quiesce
///    predicate holds; every drain pass notifies.
///  - **Slot registry** (`slots_ec_`): blocked `AcquireProducerSlot`
///    callers park until a release or a drain pass that pops re-opens a
///    slot.
///
/// ## Overload: a full ring parks the producer
///
/// A blocking `SubmitBatch` that finds its ring full parks on the ring's
/// not-full eventcount until a drain frees space, so every event it accepts
/// is applied and `queue_capacity` is the headroom a producer gets before it
/// waits. `TrySubmit` never waits: it stays the allocation-free `kPending`
/// probe.
///
/// ## Pause and resume
///
/// The pool has two states. `SetWorkerCount(0)` **pauses** it: the running
/// worker generation is retired and joined, accepted events stay queued,
/// `TrySubmit` keeps accepting until the queues fill, and blocking
/// submitters park until a resume (or `Drain`, which applies everything in
/// its final sweep regardless). `SetWorkerCount(num_workers)` **resumes**
/// it with a fresh generation that owns the same rings and lanes. `Flush`
/// fails fast with `kFailedPrecondition` while the pipeline is paused with
/// events queued instead of hanging. Nothing in the pipeline pauses or
/// resumes on its own.
///
/// An event acknowledged with OK by `TrySubmit` is never lost, even when
/// the submit races a concurrent `Drain` — draining waits out in-flight
/// submits before its final sweep.

#ifndef COUNTLIB_PIPELINE_INGEST_PIPELINE_H_
#define COUNTLIB_PIPELINE_INGEST_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "analytics/store_interface.h"
#include "obs/metrics.h"
#include "pipeline/batch_aggregator.h"
#include "pipeline/event.h"
#include "pipeline/producer_slot.h"
#include "pipeline/spsc_ring.h"
#include "util/event_count.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace countlib {
namespace pipeline {

/// \brief Async batched ingest front-end for any `CounterWriter` store.
class IngestPipeline {
 public:
  /// Starts the pipeline: one SPSC queue per producer slot and
  /// `options.num_workers` drain threads over `store`. Returns
  /// `kInvalidArgument` when `num_workers` exceeds the producer slots, the
  /// store's lanes or 256. The store must outlive the pipeline; it is not
  /// owned.
  static Result<std::unique_ptr<IngestPipeline>> Make(
      analytics::CounterWriter* store, const PipelineOptions& options);

  /// Drains and stops the workers (`Drain`).
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Leases a free, fully drained producer slot, blocking until one is
  /// available. Returns `kFailedPrecondition` once draining has begun
  /// (including while blocked). The handle releases the lease on
  /// destruction; see producer_slot.h for the lifecycle rules.
  Result<ProducerSlot> AcquireProducerSlot();

  /// Non-blocking lease attempt: `kPending` when every slot is either
  /// leased or still has undrained events from its previous holder,
  /// `kFailedPrecondition` once draining has begun.
  Result<ProducerSlot> TryAcquireProducerSlot();

  /// Pauses (`n == 0`) or resumes (`n == options.num_workers`) the drain
  /// pool; repeating the current state is a no-op, and any other `n`
  /// returns `kInvalidArgument` and changes nothing. While paused no drain
  /// thread runs, accepted events wait in their queues, `Flush` fails fast
  /// instead of hanging, and `AcquireProducerSlot` can block indefinitely
  /// on an undrained slot. Concurrent submissions keep queueing across
  /// the switch; nothing queued is ever lost (`Drain`'s final sweep also
  /// applies a paused backlog). Serialized with concurrent calls; returns
  /// `kFailedPrecondition` once draining has begun.
  Status SetWorkerCount(uint64_t n);

  /// Blocks until every event accepted before the call has been applied to
  /// the store. With producers still submitting concurrently this is a
  /// quiesce point, not a barrier. Fails fast with `kFailedPrecondition`
  /// when the pipeline is paused (`SetWorkerCount(0)`) with events still
  /// queued: no worker can make progress, so waiting would hang.
  /// Otherwise returns the first worker error, if any.
  Status Flush();

  /// Closes submission, flushes all queues, and joins the workers. Idempotent: later calls (and the destructor)
  /// return the same result immediately. Returns the first worker error,
  /// if any.
  Status Drain();

  /// Snapshot of the activity counters and current gauges.
  PipelineStats Stats() const;

  /// First store error hit by a worker (OK if none). Sticky.
  Status LastError() const;

  uint64_t num_producers() const { return rings_.size(); }

  /// Per-slot ring capacity (the power-of-two rounding of
  /// `PipelineOptions::queue_capacity`; fixed at `Make`). The net server
  /// sizes its credit windows from its lease's free share of it
  /// (`ProducerSlot::QueueDepth`).
  uint64_t queue_capacity() const {
    return rings_.empty() ? 0 : rings_[0]->capacity();
  }

 private:
  friend class ProducerSlot;

  IngestPipeline(analytics::CounterWriter* store,
                 const PipelineOptions& options);

  /// The submit path behind `ProducerSlot::TrySubmitBatch` (see there for
  /// the status contract). `producer` is always a slot the caller leased,
  /// so it is in range by construction.
  Status TrySubmitBatch(uint64_t producer, const analytics::KeyWeight* updates,
                        size_t n, size_t* accepted);

  /// The blocking submit behind `ProducerSlot::SubmitBatch`: retries
  /// `TrySubmitBatch` on the rest of the batch, parking on the ring's
  /// not-full eventcount between tries, until it fits.
  Status SubmitBatch(uint64_t producer, const analytics::KeyWeight* updates,
                     size_t n);

  /// Drain loop for worker `w` of generation `gen`, owning rings where
  /// i % options_.num_workers == w. Exits when a pause retires its
  /// generation or when stopped with all owned rings drained.
  void WorkerLoop(uint64_t w, uint64_t gen);

  /// Drains up to `max_batch` events from the rings named by `ring_ids`
  /// into `raw` (sized `max_batch` by the caller, reused across passes),
  /// folds them by key in `agg` (built for `max_batch`, reused across
  /// passes), and applies the folded batch through store lane `lane` (the
  /// caller's single-writer channel: worker `w` passes `w`; Drain's
  /// post-join sweep passes 0).
  /// The scan begins at `ring_ids[start_ring % ring_ids.size()]` — callers
  /// advance it each pass for fairness. Every nonzero pop notifies its
  /// ring's not-full eventcount, and every pass notifies the flush waiters
  /// (and, if it popped, the slot waiters). Returns the number of raw events
  /// consumed. With the scratch owned by the caller, a pass over indexed
  /// keys allocates nothing. Not `// HOTPATH`: the store apply may park
  /// on a reader's freeze (`ShardedCounterStore::IncrementBatch`).
  uint64_t DrainOnce(const std::vector<uint64_t>& ring_ids,
                     uint64_t start_ring, uint64_t lane,
                     std::vector<Event>* raw, BatchAggregator* agg);

  /// Builds `obs_` and registers every instrument with
  /// `obs::Registry::Default()` (enable_metrics only; ctor helper).
  void RegisterMetrics();

  /// Spawns `n` workers (0 or `options_.num_workers`) of a fresh
  /// generation. Caller holds `workers_mu_` and has joined every previous
  /// worker.
  void SpawnWorkersLocked(uint64_t n) REQUIRES(workers_mu_);

  /// Returns `slot` to the registry (handle destructor path).
  void ReleaseProducerSlot(uint64_t slot);

  void RecordError(const Status& st);

  analytics::CounterWriter* store_;
  const PipelineOptions options_;
  std::vector<std::unique_ptr<SpscRing>> rings_;

  /// Worker pool; guarded by workers_mu_ (pause, resume and Drain's join).
  /// workers_mu_ is held across joins, so nothing on a read path may take
  /// it. Each of the pipeline's three mutexes (workers_mu_, slots_mu_,
  /// error_mu_) is a leaf: no path holds two of them at once.
  Mutex workers_mu_ LOCK_LEVEL(10);
  std::vector<std::thread> workers_ GUARDED_BY(workers_mu_);
  std::atomic<uint64_t> worker_gen_{0};    ///< bumped to retire a generation
  std::atomic<uint64_t> worker_count_{0};  ///< gauge mirror of workers_.size()

  /// Idle workers park here; every push notifies, and shutdown and pause
  /// notify too.
  EventCount wake_ec_;

  /// Consumer→producer not-full eventcounts, one per ring: workers notify
  /// ring i's after every pop from it, and a blocking `SubmitBatch` on ring
  /// i parks on it.
  std::unique_ptr<EventCount[]> nonfull_ecs_;
  obs::Counter producer_parks_;
  obs::Counter producer_wakeups_;
  /// Worker and producer parks whose backstop found work that no notify
  /// announced (`PipelineStats::backstop_rescues`).
  obs::Counter backstop_rescues_;

  /// Flush waiters park here; workers notify after every drain pass.
  EventCount flush_ec_;

  /// Producer-slot registry: slot_leased_[i] marks an outstanding lease;
  /// acquisition additionally requires an empty ring (drained-before-
  /// reuse). The array is guarded by slots_mu_; blocked acquirers park on
  /// slots_ec_, notified by releases and by drain-pass pop progress.
  Mutex slots_mu_ LOCK_LEVEL(30);
  std::vector<uint8_t> slot_leased_ GUARDED_BY(slots_mu_);
  EventCount slots_ec_;
  std::atomic<uint64_t> slots_in_use_{0};

  std::atomic<bool> closed_{false};   ///< no new submissions accepted
  std::atomic<bool> stop_{false};     ///< workers may exit once their rings are empty
  std::atomic<uint64_t> busy_workers_{0};     ///< drains in progress (Flush fence)
  std::atomic<uint64_t> active_submitters_{0};  ///< in-flight TrySubmitBatch calls (Drain fence)

  /// Activity counters, striped (obs::Counter) so the submit and drain hot
  /// paths never contend on one cache line. These same cells back both
  /// `Stats()` (folded at read) and, under `enable_metrics`, the exported
  /// `countlib_pipeline_*_total` metrics — one source of truth, two
  /// surfaces. The worker idle-pass and wakeup counts feed `Stats()` only.
  obs::Counter submitted_;
  obs::Counter rejected_;
  obs::Counter applied_;
  obs::Counter dropped_;
  obs::Counter updates_;
  obs::Counter batches_;
  obs::Counter idle_passes_;
  obs::Counter worker_wakeups_;

  /// obs::NowNanos of the most recent push that found a worker parked; the
  /// signaled worker diffs against it for the wakeup→drain histogram.
  /// Written only with `enable_metrics` on.
  std::atomic<uint64_t> last_wake_notify_ns_{0};

  mutable Mutex error_mu_ LOCK_LEVEL(40);
  Status first_error_ GUARDED_BY(error_mu_);

  std::once_flag drain_once_;
  Status drain_result_;

  /// Latency histograms and registry handles; non-null only under
  /// `enable_metrics`. Declared LAST: it is destroyed first, so every
  /// Registration is released (synchronizing with any in-flight registry
  /// snapshot) before the instruments and gauge-captured members above
  /// start dying.
  struct ObsState {
    obs::Histogram submit_apply_latency;
    obs::Histogram batch_drain_latency;
    obs::Histogram producer_park;
    obs::Histogram wakeup_drain_latency;
    std::vector<obs::Registration> registrations;
  };
  std::unique_ptr<ObsState> obs_;
};

}  // namespace pipeline
}  // namespace countlib

#endif  // COUNTLIB_PIPELINE_INGEST_PIPELINE_H_
