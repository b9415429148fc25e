/// \file event.h
/// \brief Shared vocabulary of the ingestion pipeline: the event type that
/// flows through the producer queues, the pipeline's tuning knobs, and the
/// observable counters (`PipelineStats`).
///
/// The §1 motivating system ("count visits to every Wikipedia page under
/// production write traffic") needs an ingest path between the producers
/// and the bit-packed analytics stores; `src/pipeline/` provides it. An
/// `Event` carries one `analytics::KeyWeight` update plus an optional
/// submit timestamp for latency telemetry; the drain path
/// pre-aggregates events into `KeyWeight` batches before the store apply,
/// so the timestamp never reaches the store.

#ifndef COUNTLIB_PIPELINE_EVENT_H_
#define COUNTLIB_PIPELINE_EVENT_H_

#include <cstdint>

#include "analytics/counter_store.h"

namespace countlib {
namespace pipeline {

/// \brief One ingestion event: `weight` increments to `key`, stamped with
/// its submit time when it is in the latency sample.
///
/// The timestamp exists for the telemetry layer: when the pipeline was
/// built with `enable_metrics`, every 64th event a thread pushes carries
/// `ts`, read once per `TrySubmitBatch` call for the whole call, and the
/// draining worker records submit→apply latency when it applies the
/// event.
struct Event {
  uint64_t key = 0;
  uint64_t weight = 0;
  /// Steady-clock submit time (`obs::NowNanos()`), or 0 when the event is
  /// not latency-sampled. Never persisted past the drain.
  uint64_t ts = 0;
};

/// \brief Tuning knobs for `IngestPipeline::Make`.
struct PipelineOptions {
  /// Number of producer slots; each owns a private SPSC queue and is used
  /// by at most one thread at a time (the SPSC contract), which the lease
  /// registry (`AcquireProducerSlot`) enforces.
  uint64_t num_producers = 4;
  /// Per-producer queue capacity in events; rounded up to a power of two.
  /// When a queue is full, `TrySubmit` reports `kPending` backpressure and
  /// a blocking `Submit` parks until a drain frees space, so this is the
  /// headroom a producer gets before it waits.
  uint64_t queue_capacity = 4096;
  /// Background drain threads, fixed at `Make`: worker w drains the
  /// producer queues i with i % num_workers == w and writes store lane w,
  /// so `Make` rejects more workers than producer slots or store lanes.
  /// `SetWorkerCount` only pauses (0) and resumes (this count) the pool.
  uint64_t num_workers = 1;
  /// Max events a worker drains into one pre-aggregated store batch, in
  /// [1, 2^16]. Each worker sizes its drain scratch from it (the popped
  /// events and the fold's table, output and bucket list: about 52 bytes
  /// per event).
  uint64_t max_batch = 1024;
  /// Register this pipeline's counters/gauges/histograms with
  /// `obs::Registry::Default()` and record hot-path latencies, among them
  /// submit→apply latency for 1 event in 64 per submitting thread,
  /// stamped and read on the steady clock. Off by default: an
  /// uninstrumented pipeline pays zero telemetry cost beyond its own
  /// Stats() atomics.
  bool enable_metrics = false;
};

/// \brief Monotonic counters describing pipeline activity, plus an
/// instantaneous queue-depth gauge. Taken with `IngestPipeline::Stats`.
struct PipelineStats {
  uint64_t events_submitted = 0;   ///< events enqueued by TrySubmitBatch (and the calls built on it)
  uint64_t events_rejected = 0;    ///< TrySubmitBatch calls that returned kPending (one per call, however many events it left)
  uint64_t events_applied = 0;     ///< events folded into the store (pre-agg weight preserved)
  /// Events in batches that hit a store error (see LastError). Counts the
  /// whole failed batch even though the store may have committed a prefix
  /// of its updates before erroring, so treat it as an upper bound on loss.
  uint64_t events_dropped = 0;
  uint64_t updates_applied = 0;    ///< post-aggregation distinct-key updates written
  uint64_t batches_applied = 0;    ///< store IncrementBatch calls
  uint64_t idle_passes = 0;        ///< drain passes (every worker, across pauses) that found no events
  uint64_t worker_wakeups = 0;     ///< CV sleeps ended by a producer/shutdown signal (not timeout)
  uint64_t producer_parks = 0;     ///< times a blocking Submit parked on the not-full eventcount
  uint64_t producer_wakeups = 0;   ///< producer parks ended by a drain's not-full signal (not timeout)
  /// Parks whose backstop, not a notify, found the work: a worker park that
  /// timed out with events in its rings, or a producer park that timed out
  /// before its retry found room, each with no notify since. Every push and
  /// pop notifies, so this stays 0; nonzero means a lost wakeup.
  uint64_t backstop_rescues = 0;
  uint64_t queue_depth = 0;        ///< events currently sitting in queues (approximate)
  uint64_t workers = 0;            ///< running drain threads (gauge): num_workers, or 0 while paused or after Drain
  uint64_t slots_in_use = 0;       ///< producer slots currently leased via the registry (gauge)
};

}  // namespace pipeline
}  // namespace countlib

#endif  // COUNTLIB_PIPELINE_EVENT_H_
