/// \file store_interface.h
/// \brief The store contract behind the ingest pipeline: a read-side
/// snapshot interface (`CounterReader`) and an ownership-based write
/// contract (`CounterWriter`).
///
/// The paper's counters are mergeable (Remark 2.4 — a merged counter is
/// distributionally exactly one counter over the concatenated stream), so
/// the write path never needs a shared store. A `CounterWriter` exposes
/// numbered **lanes**; each lane is a single-writer channel backed by
/// completely private state (`ShardedCounterStore`, whose `IncrementBatch`
/// takes no lock and touches no shared cache line). Reads go through
/// `CounterReader`, which reconstructs the global view — exactly, per
/// Remark 2.4 — at snapshot time. See docs/store_api.md for the contract
/// details.

#ifndef COUNTLIB_ANALYTICS_STORE_INTERFACE_H_
#define COUNTLIB_ANALYTICS_STORE_INTERFACE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "analytics/counter_store.h"
#include "util/status.h"

namespace countlib {
namespace analytics {

/// \brief Monotonic ingest counters for a concurrent store — the
/// store-side half of the pipeline's observability surface (the pipeline's
/// `PipelineStats` counts what reached the queues; this counts what reached
/// the packed slots). Taken with `CounterReader::Stats`.
struct StoreStats {
  uint64_t batch_calls = 0;    ///< IncrementBatch invocations with n > 0
  /// Key-weight updates applied through fully successful batches. A batch
  /// that errors mid-way may have committed a prefix that is not counted
  /// here, so treat this as a lower bound under store errors.
  uint64_t batch_updates = 0;
  /// Merged snapshot reads (`ForEach` / `TopK` / merged `Snapshot` calls).
  uint64_t merge_reads = 0;
};

/// \brief Read-side interface of a concurrent multi-counter store.
///
/// All methods are thread-safe against concurrent writers. Reads are
/// **exact cross-shard cuts**: the snapshot equals a quiesced store that
/// processed some prefix of every writer's stream (frozen at whole applied
/// batches).
class CounterReader {
 public:
  virtual ~CounterReader() = default;

  /// The key's current estimate; NotFound if never incremented.
  virtual Result<double> Estimate(uint64_t key) const = 0;

  /// Snapshot iteration: invokes `fn(key, estimate)` for every key.
  /// Iteration order is unspecified. Do not call store methods from `fn`.
  virtual Status ForEach(
      const std::function<void(uint64_t, double)>& fn) const = 0;

  /// The `k` keys with the largest estimates.
  ///
  /// Ordering contract (pinned here; the test suite checks it against a
  /// hand-computed order): descending by estimate, **ties broken by key,
  /// ascending**. The result is therefore deterministic given the
  /// key→estimate multiset.
  virtual Result<std::vector<KeyEstimate>> TopK(size_t k) const = 0;

  /// Snapshot of the ingest activity counters.
  virtual StoreStats Stats() const = 0;

  /// Total distinct keys.
  virtual uint64_t NumKeys() const = 0;

  /// Total packed counter state across the store, in bits.
  virtual uint64_t TotalStateBits() const = 0;
};

/// \brief Write-side contract of a concurrent multi-counter store.
///
/// Writes are addressed to a **lane**. The caller contract:
///
///  - At any instant, at most one thread writes a given lane. Lane
///    ownership may migrate between threads, but only across a
///    happens-before edge (the pipeline's worker w writes lane w for the
///    pipeline's whole life; a pause joins it before a resume spawns its
///    successor, and `Drain` joins every worker before its sweep writes
///    lane 0 — each join is exactly that edge).
///  - Different lanes are fully concurrent — implementations must not make
///    one lane's progress wait on another's.
///
/// `num_lanes()` returns how many such channels exist (the shard count of
/// a `ShardedCounterStore`); callers spread writers across lanes
/// `0..num_lanes()-1`, and an out-of-range lane is InvalidArgument.
class CounterWriter {
 public:
  virtual ~CounterWriter() = default;

  /// Number of single-writer lanes.
  virtual uint64_t num_lanes() const = 0;

  /// Applies `n` updates through `lane` in one pass — the one write entry
  /// point. Callers that pre-aggregate duplicate keys (the ingestion
  /// pipeline does) pay one packed-slot rewrite per *distinct* key. Stops
  /// at the first error; already-applied updates stay applied.
  virtual Status IncrementBatch(uint64_t lane, const KeyWeight* updates,
                                size_t n) = 0;
};

/// \brief The one implementation of the `TopK` ordering contract:
/// descending by estimate, ties broken by key ascending. Implementations
/// sort (or partial-sort to `k`) through this helper so they cannot drift
/// from the pinned contract.
inline void SortTopKByContract(std::vector<KeyEstimate>* all, size_t k) {
  const auto by_estimate_desc = [](const KeyEstimate& a, const KeyEstimate& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return a.key < b.key;
  };
  if (k < all->size()) {
    std::partial_sort(all->begin(), all->begin() + k, all->end(),
                      by_estimate_desc);
    all->resize(k);
  } else {
    std::sort(all->begin(), all->end(), by_estimate_desc);
  }
}

}  // namespace analytics
}  // namespace countlib

#endif  // COUNTLIB_ANALYTICS_STORE_INTERFACE_H_
