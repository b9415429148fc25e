/// \file batch_aggregator.h
/// \brief The drain path's pre-aggregation step: folds one popped batch of
/// events into one `KeyWeight` per distinct key, without allocating.
///
/// Under a Zipfian event stream most of a batch lands on a few hot keys,
/// so folding duplicates first turns the store's per-event slot rewrite
/// into one per distinct key. The fold runs on every drain pass, so it is
/// built to cost nothing but the fold itself:
///
///  - **A flat open-addressing table, allocated once.** Each drain worker
///    (and `Drain`'s final sweep) owns one `BatchAggregator`, sized from
///    `PipelineOptions::max_batch` at construction. The table has a
///    power-of-two bucket count of at least 2 × `max_batch`, so a fold of
///    at most `max_batch` distinct keys keeps the load at or below 1/2 and
///    linear probes short.
///  - **Keys live only in the output.** A bucket holds a 32-bit tag: 0 for
///    empty, otherwise 1 + the index of the key's entry in the output
///    batch, and a probe compares `batch()[tag - 1].key`. The output is
///    the very array the pipeline hands to `CounterWriter::IncrementBatch`,
///    in first-appearance order, so nothing is copied out of the table.
///  - **Reset, never cleared.** The fold records the bucket each entry
///    took, and afterwards empties exactly those: one store per distinct
///    key. A one-event batch costs O(1), not O(capacity).
///
/// Weights fold with `SaturatingAdd`, as every counter saturates: a wire
/// weight may be any nonzero u64, and wrapping would turn two huge events
/// into a small count.

#ifndef COUNTLIB_PIPELINE_BATCH_AGGREGATOR_H_
#define COUNTLIB_PIPELINE_BATCH_AGGREGATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analytics/key_weight.h"
#include "pipeline/event.h"

namespace countlib {
namespace pipeline {

/// \brief Reusable per-worker scratch that folds a batch of events by key.
///
/// Single-threaded: each drain worker owns its own instance.
class BatchAggregator {
 public:
  /// The largest `max_batch` an aggregator (and so `PipelineOptions`)
  /// accepts. It bounds each worker's scratch: at most 2^17 buckets
  /// (512 KiB), 2^16 output entries (1 MiB) and their bucket list
  /// (256 KiB).
  static constexpr uint64_t kMaxBatch = uint64_t{1} << 16;

  /// Sizes the table and the output for folds of up to `max_batch` events,
  /// 1 <= `max_batch` <= `kMaxBatch` (the pipeline validates it in `Make`).
  explicit BatchAggregator(uint64_t max_batch);

  /// Folds `events[0, n)`, `n` <= `max_batch`, into `batch()`: one entry
  /// per distinct key, in the order the keys first appear, each weighing
  /// the saturating sum of its key's event weights. Returns the number of
  /// entries. The output stays valid until the next `Fold`, and the table
  /// is empty again when this returns.
  size_t Fold(const Event* events, size_t n);

  /// The output of the last `Fold`.
  const analytics::KeyWeight* batch() const { return out_.data(); }

  /// Bucket count of the table: a power of two >= 2 × `max_batch`.
  uint64_t capacity() const { return table_.size(); }

  /// The bucket at which the probe for `key` starts.
  uint64_t HomeBucket(uint64_t key) const { return Hash(key) >> shift_; }

 private:
  /// Multiplicative hashing, read from the top bits, with the key's high
  /// half folded in first (the store index's hash, counter_store.cc).
  static uint64_t Hash(uint64_t key) {
    return (key ^ (key >> 32)) * 0x9E3779B97F4A7C15ull;
  }

  /// 0 = empty; otherwise 1 + the index of the bucket's key in `out_`.
  std::vector<uint32_t> table_;
  std::vector<analytics::KeyWeight> out_;
  /// `buckets_[j]` is the bucket output entry j took in the current fold.
  std::vector<uint32_t> buckets_;
  uint64_t mask_ = 0;
  unsigned shift_ = 0;
};

}  // namespace pipeline
}  // namespace countlib

#endif  // COUNTLIB_PIPELINE_BATCH_AGGREGATOR_H_
