/// \file producer_slot.h
/// \brief RAII lease on one `IngestPipeline` producer slot.
///
/// The pipeline's SPSC contract requires that each producer queue has at
/// most one submitting thread at any instant. The original static contract
/// ("thread i uses slot i forever") breaks down for thread pools whose
/// threads come and go; `ProducerSlot` replaces it with a registry lease:
/// `IngestPipeline::AcquireProducerSlot()` hands out a handle bound to a
/// free *and fully drained* slot, and destroying (or `Release()`-ing) the
/// handle returns the slot to the registry. A released slot becomes
/// acquirable again only after the workers have popped every event its
/// previous owner enqueued off the queue, so a new lease always starts on
/// an empty queue with the full capacity available. (Popped, not yet
/// necessarily applied to the store — the previous owner's final batch may
/// still be in flight, so no apply-ordering between leases is implied;
/// `Flush`/`Drain` remain the apply barriers.)
///
/// Lifecycle rules:
///  - A handle is move-only; the moved-from handle becomes invalid.
///  - At most one thread may use a handle at a time (it IS the SPSC
///    producer side).
///  - Handles must be released or destroyed before the pipeline itself is
///    destroyed.
///  - Releasing does not discard queued events: everything submitted
///    through the handle before release is still applied.

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

  /// Non-blocking batch submit on the leased slot; see
  /// `IngestPipeline::TrySubmitBatch` for the status contract.
  Status TrySubmitBatch(const analytics::KeyWeight* updates, size_t n,
                        size_t* accepted = nullptr);

  /// Blocking batch submit on the leased slot; see
  /// `IngestPipeline::SubmitBatch`.
  Status SubmitBatch(const analytics::KeyWeight* updates, size_t n);

  /// `TrySubmitBatch` of the single update {key, weight}.
  Status TrySubmit(uint64_t key, uint64_t weight = 1);

  /// `SubmitBatch` of the single update {key, weight}.
  Status Submit(uint64_t key, uint64_t weight = 1);

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
