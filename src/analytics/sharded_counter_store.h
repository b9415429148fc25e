/// \file sharded_counter_store.h
/// \brief Merge-on-read sharded store: per-lane private `CounterStore`
/// shards, zero mutexes on the write path, and exact cross-shard snapshot
/// reads — the hot-path implementation of the `CounterReader` /
/// `CounterWriter` contract (store_interface.h).
///
/// ## Why private shards
///
/// A shared store would synchronize writers against each other: every
/// batch would take a lock and bounce its cache line between cores. The
/// paper removes the need for any of that: Remark 2.4 says the library's
/// counters are *mergeable* — merging two counters over streams σ₁ and σ₂
/// yields a counter distributed exactly as one counter run over the
/// concatenation σ₁σ₂. So each pipeline worker can ingest into a
/// **completely private** shard, and the global view is reconstructed
/// exactly at read time by merging the shards. Writers never synchronize
/// with each other, ever; writers and readers synchronize only during a
/// snapshot, through a freeze protocol (below) built on the same seq_cst
/// Dekker discipline as `EventCount`.
///
/// ## Lanes == shards
///
/// `num_lanes()` is the shard count. Lane `w` writes only shard `w`; the
/// single-writer-per-lane contract (store_interface.h) makes the shard's
/// `CounterStore` calls data-race-free with no locking at all. The
/// ingestion pipeline satisfies the contract naturally: its pool is fixed
/// at `IngestPipeline::Make`, worker `w` owns lane `w` for the pipeline's
/// whole life, and a pause joins it before a resume spawns its successor
/// (a happens-before edge), so no events are lost or double-counted across
/// a pause.
///
/// ## The freeze protocol (reads)
///
/// A snapshot read must not run concurrently with a shard mutation (the
/// packed pools are plain memory). The reader:
///
///  1. acquires the freeze token: CAS `freeze_` false→true (readers
///     serialize here; writers are untouched),
///  2. waits until every shard's `busy` flag is 0 — the Dekker pairing
///     with the writer (which sets `busy` and *then* probes `freeze_`,
///     both seq_cst) guarantees that for any in-flight batch, either the
///     writer saw the freeze and stepped aside, or the reader sees
///     `busy == 1` and waits for the batch to finish. Batches are atomic
///     units of the cut: a snapshot reflects a whole number of applied
///     batches per lane,
///  3. merges the frozen shards (per-key or whole-store, per Remark 2.4 —
///     the merged view is distributed exactly as one store fed the
///     concatenated streams; this is the "exact cross-shard cut"),
///  4. clears `freeze_` and wakes parked writers.
///
/// Steady-state writer cost beyond the private `CounterStore` work: one
/// store to the shard's own `busy` line, one load of the (read-shared,
/// writer-clean) `freeze_` line, and relaxed stores to the shard's own
/// mirror cells — no contended cache line, no lock, no syscall. All
/// parking goes through `EventCount`; there is no `countlib::Mutex` in
/// this class, so nothing here participates in the lock hierarchy.

#ifndef COUNTLIB_ANALYTICS_SHARDED_COUNTER_STORE_H_
#define COUNTLIB_ANALYTICS_SHARDED_COUNTER_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analytics/counter_store.h"
#include "analytics/store_interface.h"
#include "core/counter.h"
#include "core/counter_factory.h"
#include "obs/metrics.h"
#include "util/event_count.h"
#include "util/status.h"

namespace countlib {
namespace analytics {

/// \brief Per-worker-shard store with lock-free writes and exact
/// merge-on-read snapshots. See the file comment for the design.
///
/// Thread-safety: `IncrementBatch(lane, ...)` follows the
/// `CounterWriter` single-writer-per-lane contract; every `CounterReader`
/// method is safe from any thread (readers serialize on the freeze token).
/// Not movable (shards hold atomics and the EventCounts are pinned).
class ShardedCounterStore final : public CounterReader, public CounterWriter {
 public:
  /// Builds a store with `num_shards` private shards whose per-key
  /// counters are `kind` calibrated to `state_bits` bits for counts up to
  /// `n_max`. `kind` must be mergeable (`Counter::MergeFrom`): kExact,
  /// kMorris, kSampling qualify; kCsuros is bit-budget-constructible but
  /// not mergeable and is rejected with InvalidArgument — count it with the
  /// single-threaded `CounterStore` instead. The store's instruments
  /// (`countlib_store_*`, see obs/README.md) are registered with
  /// `obs::Registry::Default()` for its lifetime.
  static Result<std::unique_ptr<ShardedCounterStore>> Make(
      uint64_t num_shards, CounterKind kind, int state_bits, uint64_t n_max,
      uint64_t seed);

  ShardedCounterStore(const ShardedCounterStore&) = delete;
  ShardedCounterStore& operator=(const ShardedCounterStore&) = delete;

  // --- CounterWriter -------------------------------------------------

  /// Number of single-writer lanes == shard count.
  uint64_t num_lanes() const override { return shards_.size(); }

  /// Applies the batch to lane `lane`'s private shard. Lock-free in the
  /// steady state; parks (EventCount) only while a reader holds the
  /// freeze. InvalidArgument for out-of-range lanes. Contract: one thread
  /// per lane at a time (store_interface.h).
  Status IncrementBatch(uint64_t lane, const KeyWeight* updates,
                        size_t n) override;

  // --- CounterReader -------------------------------------------------

  /// The key's estimate over ALL shards, merged per Remark 2.4 under a
  /// freeze (exact cross-shard cut). NotFound if no shard has the key.
  Result<double> Estimate(uint64_t key) const override;

  /// Snapshot iteration over the merged view. The merge happens under the
  /// freeze; `fn` runs *after* the store is unfrozen (writers are not
  /// stalled by the callback). Do not call store methods from `fn`.
  Status ForEach(
      const std::function<void(uint64_t, double)>& fn) const override;

  /// Top `k` of the merged view, per the `CounterReader` ordering
  /// contract (descending by estimate, ties broken by key ascending).
  Result<std::vector<KeyEstimate>> TopK(size_t k) const override;

  /// Snapshot of the ingest activity counters (exact once writers are
  /// quiescent, like `obs::Counter`).
  StoreStats Stats() const override;

  /// Total distinct keys across shards. Requires a merged snapshot (a key
  /// may live in several shards), so this freezes and merges — O(total
  /// keys), not a gauge-rate call; the exported `countlib_store_shard_keys`
  /// gauge reads cheap per-shard mirrors instead.
  uint64_t NumKeys() const override;

  /// Total packed counter bits across shards (sum of per-shard mirrors;
  /// exact once writers are quiescent). This is the provisioned footprint —
  /// a key resident in s shards pays s slots until merged at read time.
  uint64_t TotalStateBits() const override;

  // --- Extras ---------------------------------------------------------

  /// An exact frozen cut of the whole store, merged into one
  /// single-threaded `CounterStore` the caller owns. The workhorse behind
  /// ForEach/TopK, exposed for tests and offline processing (e.g.
  /// `SaveToFile` of a consistent snapshot).
  Result<CounterStore> Snapshot() const;

  uint64_t num_shards() const { return shards_.size(); }

 private:
  struct alignas(64) Shard {
    /// Private packed store. Touched by the lane's writer while
    /// `busy == 1` and by the freeze-holding reader while `freeze_` is
    /// set and `busy == 0` — never both, by the Dekker argument in the
    /// file comment.
    std::unique_ptr<CounterStore> store;

    /// 1 while the lane writer is inside a batch (the writer half of the
    /// Dekker pair). Own cache line: the writer's store never contends.
    alignas(64) std::atomic<uint64_t> busy{0};
    /// Applied-batch count; the reader records it per shard after
    /// stabilizing and re-checks after merging (defense-in-depth: an
    /// epoch move under freeze means the protocol was violated).
    std::atomic<uint64_t> epoch{0};
    /// Relaxed mirrors of `store->num_keys()` / `store->TotalStateBits()`
    /// maintained by the writer after each batch, so gauges never need
    /// the freeze.
    std::atomic<uint64_t> keys_mirror{0};
    std::atomic<uint64_t> bits_mirror{0};
  };

  struct StatCells {
    obs::Counter batch_calls;
    obs::Counter batch_updates;
    obs::Counter merge_reads;
    /// One sample per shard per merged read: how long that shard's merge
    /// contribution took (satellite of the merge-on-read redesign; the
    /// examples surface it via --metrics_out).
    obs::Histogram shard_merge_latency_ns;
    /// Freeze acquisition + stabilization wait per merged read.
    obs::Histogram freeze_wait_ns;
  };

  ShardedCounterStore(std::vector<std::unique_ptr<Shard>> shards,
                      CounterKind kind, int state_bits, uint64_t n_max,
                      uint64_t seed);

  /// RAII freeze token: acquires on construction, releases + wakes
  /// writers on destruction. Only one exists at a time.
  class FreezeGuard;

  /// The batch on `shard`, which the caller has acquired (busy == 1, no
  /// freeze); publishes the mirrors and epoch, then releases the shard.
  Status ApplyToAcquiredShard(Shard* shard, const KeyWeight* updates,
                              size_t n);

  /// Builds the merged cut. Caller must hold the freeze and have
  /// stabilized the shards (FreezeGuard does both).
  Result<CounterStore> MergeShardsLocked() const;

  /// Fills `registrations_` (Make's helper, once the store sits at its
  /// final address). Gauges read only relaxed per-shard mirror cells —
  /// they never freeze, park, or take a shard, so they are safe under the
  /// registry mutex.
  void RegisterMetrics();

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Construction recipe, retained so reads can build identically
  /// configured scratch counters and merged stores (a CounterStore does
  /// not remember its kind).
  const CounterKind kind_;
  const int state_bits_;
  const uint64_t n_max_;
  const uint64_t seed_;

  /// The freeze token (reader-owned; writers only load it).
  mutable std::atomic<bool> freeze_{false};
  /// Distinct merged snapshots taken, used to vary the merged store's RNG
  /// seed per cut. Mutated only under the freeze.
  mutable uint64_t snapshot_seq_ = 0;

  /// Writers park here while frozen; competing readers park here while
  /// another reader holds the token. Notified on unfreeze.
  mutable EventCount unfrozen_ec_;
  /// The freeze-holding reader parks here while some shard is busy.
  /// Notified by writers that clear `busy` while a freeze is pending.
  mutable EventCount stable_ec_;

  /// Scratch counters for the per-key read path (Estimate). Touched only
  /// by the freeze holder — the token serializes readers.
  mutable std::unique_ptr<Counter> acc_;
  mutable std::unique_ptr<Counter> tmp_;

  std::unique_ptr<StatCells> stat_cells_;

  /// Registry handles. Declared LAST: the gauges capture `this`, so every
  /// Registration is released before the members they read start dying.
  std::vector<obs::Registration> registrations_;
};

}  // namespace analytics
}  // namespace countlib

#endif  // COUNTLIB_ANALYTICS_SHARDED_COUNTER_STORE_H_
