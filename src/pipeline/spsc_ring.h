/// \file spsc_ring.h
/// \brief Bounded lock-free single-producer/single-consumer ring buffer of
/// `Event`s — the per-producer queue of the ingestion pipeline.
///
/// Classic two-index design: the producer owns `tail_`, the consumer owns
/// `head_`, each side reads the other's index with acquire semantics and
/// publishes its own with release semantics. Capacity is a power of two so
/// wraparound is a mask. Indices are monotonically increasing 64-bit
/// counters (no ABA, no modular-compare subtleties).
///
/// Contract: at most one thread calls the producer side (`TryPushBatch`,
/// `TryPush`) and at most one thread calls the consumer side (`PopBatch`)
/// at any time. `SizeApprox` is safe from any thread.

#ifndef COUNTLIB_PIPELINE_SPSC_RING_H_
#define COUNTLIB_PIPELINE_SPSC_RING_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "pipeline/event.h"

namespace countlib {
namespace pipeline {

/// \brief Bounded SPSC queue of events with power-of-two capacity.
class SpscRing {
 public:
  /// Builds a ring holding at least `min_capacity` events (rounded up to a
  /// power of two, minimum 2, clamped to 2^63 — see `RoundUpPow2`).
  explicit SpscRing(uint64_t min_capacity)
      : buf_(RoundUpPow2(min_capacity < 2 ? 2 : min_capacity)),
        mask_(buf_.size() - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side: enqueues `make(0)`, `make(1)`, ... for as many of the
  /// `n` events as fit, with one head read and one tail publish, and
  /// returns how many it enqueued (0 when the ring is full; the caller
  /// surfaces a shortfall as `kPending` backpressure). The ring reports no
  /// empty/full transitions: the pipeline notifies after every nonzero push
  /// and pop, so no wake decision rests on a possibly stale far index.
  // HOTPATH: the producer-side submit step — no allocation permitted.
  template <typename MakeEvent>
  uint64_t TryPushBatch(uint64_t n, MakeEvent&& make) {
    // mo: relaxed — tail_ is producer-owned; only this thread writes it,
    // so its own last store is always visible without ordering.
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    // mo: acquire — pairs with the consumer's release store in PopBatch so
    // freed slots observed here are genuinely reusable (their reads done).
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t room = buf_.size() - (tail - head);
    const uint64_t k = n < room ? n : room;
    if (k == 0) return 0;
    for (uint64_t i = 0; i < k; ++i) buf_[(tail + i) & mask_] = make(i);
    // mo: release — publishes the event writes above to the consumer's
    // acquire load of tail_ in PopBatch.
    tail_.store(tail + k, std::memory_order_release);
    return k;
  }

  /// `TryPushBatch` of the single event `e`: false when the ring is full.
  bool TryPush(const Event& e) {
    return TryPushBatch(1, [&e](uint64_t) { return e; }) == 1;
  }

  /// Consumer side: dequeues up to `max` events into `out`; returns the
  /// number dequeued (0 when empty).
  // HOTPATH: the consumer-side drain step — no allocation permitted.
  uint64_t PopBatch(Event* out, uint64_t max) {
    // mo: relaxed — head_ is consumer-owned; only this thread writes it.
    const uint64_t head = head_.load(std::memory_order_relaxed);
    // mo: acquire — pairs with the producer's release store in
    // TryPushBatch so the event writes behind the observed tail are visible
    // to the copies.
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    uint64_t n = tail - head;
    if (n > max) n = max;
    for (uint64_t i = 0; i < n; ++i) {
      out[i] = buf_[(head + i) & mask_];
    }
    // mo: release — publishes the slot reads above before handing the
    // capacity back to the producer's acquire load of head_.
    if (n > 0) head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Events currently queued. Exact only when both sides are quiescent.
  uint64_t SizeApprox() const {
    // mo: acquire — an any-thread gauge read; acquire keeps each index no
    // staler than its owner's latest release, but the pair is still only
    // approximate (the two loads are not one atomic snapshot).
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    // mo: acquire — see above; the subtraction clamps the torn-pair case.
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  uint64_t capacity() const { return buf_.size(); }

  /// Smallest power of two >= `v`, clamped to 2^63 (the largest uint64_t
  /// power of two) when `v` exceeds it. The clamp matters: the naive
  /// `while (p < v) p <<= 1` loop never terminates for v > 2^63 because
  /// the shift overflows to zero. Exposed for direct testing and for
  /// callers sizing their own buffers to the ring's rounding rule.
  static uint64_t RoundUpPow2(uint64_t v) {
    constexpr uint64_t kMaxPow2 = uint64_t{1} << 63;
    if (v > kMaxPow2) return kMaxPow2;
    uint64_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

 private:
  std::vector<Event> buf_;
  const uint64_t mask_;
  // Producer and consumer indices on separate cache lines to avoid
  // false sharing between the submitting and draining threads.
  alignas(64) std::atomic<uint64_t> head_{0};  // consumer
  alignas(64) std::atomic<uint64_t> tail_{0};  // producer
};

}  // namespace pipeline
}  // namespace countlib

#endif  // COUNTLIB_PIPELINE_SPSC_RING_H_
