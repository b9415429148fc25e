/// \file producer_slot.h
/// \brief RAII lease on one `IngestPipeline` producer slot — the only way
/// to submit to a pipeline.
///
/// The pipeline's SPSC contract requires that each producer queue has at
/// most one submitting thread at any instant. `ProducerSlot` enforces it
/// with a registry lease: `IngestPipeline::AcquireProducerSlot()` hands out
/// a handle bound to a free *and fully drained* slot, and destroying (or
/// `Release()`-ing) the handle returns the slot to the registry. A released
/// slot becomes acquirable again only after the workers have popped every
/// event its previous owner enqueued off the queue, so a new lease always
/// starts on an empty queue with the full capacity available. (Popped, not
/// yet necessarily applied to the store — the previous owner's final batch
/// may still be in flight, so no apply-ordering between leases is implied;
/// `Flush`/`Drain` remain the apply barriers.)
///
/// Lifecycle rules:
///  - A handle is move-only; the moved-from handle becomes invalid, and
///    move-assigning onto a live handle releases that handle's lease first.
///  - At most one thread may use a handle at a time (it IS the SPSC
///    producer side).
///  - Handles must be released or destroyed before the pipeline itself is
///    destroyed.
///  - Releasing does not discard queued events: everything submitted
///    through the handle before release is still applied.
///  - Every submit through an invalid (default, moved-from or released)
///    handle returns `kFailedPrecondition` without allocating.

#ifndef COUNTLIB_PIPELINE_PRODUCER_SLOT_H_
#define COUNTLIB_PIPELINE_PRODUCER_SLOT_H_

#include <cstddef>
#include <cstdint>

#include "analytics/key_weight.h"
#include "util/status.h"

namespace countlib {
namespace pipeline {

class IngestPipeline;

/// \brief Move-only lease on one producer slot of an `IngestPipeline`.
class ProducerSlot {
 public:
  /// Default-constructed handles are invalid (no slot leased).
  ProducerSlot() = default;

  ProducerSlot(ProducerSlot&& other) noexcept
      : pipeline_(other.pipeline_), slot_(other.slot_) {
    other.pipeline_ = nullptr;
  }
  ProducerSlot& operator=(ProducerSlot&& other) noexcept {
    if (this != &other) {
      Release();
      pipeline_ = other.pipeline_;
      slot_ = other.slot_;
      other.pipeline_ = nullptr;
    }
    return *this;
  }

  ProducerSlot(const ProducerSlot&) = delete;
  ProducerSlot& operator=(const ProducerSlot&) = delete;

  /// Returns the slot to the registry (no-op when invalid).
  ~ProducerSlot() { Release(); }

  /// Non-blocking submit of `n` updates on the leased queue, in order, with
  /// one ring publish: the longest prefix that fits is enqueued (and will
  /// be applied) and `*accepted`, when non-null, receives its length.
  /// Returns OK when all `n` were enqueued, `kPending` when the queue
  /// filled first (retry the rest after backoff), `kFailedPrecondition`
  /// once draining has begun, and `kInvalidArgument` for any zero weight —
  /// every weight is checked before anything is enqueued, so an invalid
  /// batch enqueues nothing. Each call makes one `Drain` handshake and
  /// wakes a worker at most once. Every rejection result is preallocated —
  /// no reject path ever heap-allocates. It never waits: this is always the
  /// pure ring probe. Under `enable_metrics` the call stamps the events of
  /// it that fall in the calling thread's 1-in-64 latency sample, with one
  /// steady-clock read per call (none when no stamp falls in the batch).
  Status TrySubmitBatch(const analytics::KeyWeight* updates, size_t n,
                        size_t* accepted = nullptr);

  /// Blocking batch submit: like `TrySubmitBatch`, but while the rest does
  /// not fit it parks on the ring's not-full eventcount, which every pop
  /// from the ring notifies, and retries; an OK return means all `n` were
  /// enqueued. Never returns `kPending`.
  Status SubmitBatch(const analytics::KeyWeight* updates, size_t n);

  /// `TrySubmitBatch` of the single update {key, weight}.
  Status TrySubmit(uint64_t key, uint64_t weight = 1);

  /// `SubmitBatch` of the single update {key, weight}.
  Status Submit(uint64_t key, uint64_t weight = 1);

  /// Approximate depth of the leased ring (0 when invalid); the same
  /// relaxed snapshot as `SpscRing::SizeApprox`.
  uint64_t QueueDepth() const;

  /// Returns the slot to the registry early; the handle becomes invalid.
  /// Safe to call repeatedly.
  void Release();

  /// True while the handle holds a slot lease.
  bool valid() const { return pipeline_ != nullptr; }

  /// The leased slot index (meaningful only while `valid()`).
  uint64_t slot() const { return slot_; }

 private:
  friend class IngestPipeline;
  ProducerSlot(IngestPipeline* pipeline, uint64_t slot)
      : pipeline_(pipeline), slot_(slot) {}

  IngestPipeline* pipeline_ = nullptr;
  uint64_t slot_ = 0;
};

}  // namespace pipeline
}  // namespace countlib

#endif  // COUNTLIB_PIPELINE_PRODUCER_SLOT_H_
