#include "analytics/sharded_counter_store.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/timer.h"

namespace countlib {
namespace analytics {

namespace {

/// Backstop for parks on the freeze token (writers frozen out, readers
/// waiting their turn). Freezes last one merge — microseconds to low
/// milliseconds — so a lost-notify worst case costs one of these.
constexpr std::chrono::milliseconds kFrozenParkBackstop(10);
/// Backstop for the freeze holder waiting out an in-flight batch; batches
/// are short, so this sleep almost never runs to its bound.
constexpr std::chrono::milliseconds kStableParkBackstop(1);

/// The out-of-range-lane result, built off the allocation-free write path.
Status LaneOutOfRangeStatus(uint64_t lane, uint64_t lanes) {
  return Status::InvalidArgument("ShardedCounterStore: lane " +
                                 std::to_string(lane) +
                                 " out of range (store has " +
                                 std::to_string(lanes) + " lanes)");
}

}  // namespace

/// RAII freeze token. Construction acquires the token and stabilizes every
/// shard (no in-flight batches); destruction releases the token and wakes
/// parked writers and waiting readers. Exactly one guard exists at a time,
/// which is also what makes the shared `acc_`/`tmp_` scratch counters and
/// `snapshot_seq_` safe.
class ShardedCounterStore::FreezeGuard {
 public:
  explicit FreezeGuard(const ShardedCounterStore& s) : s_(s) {
    const uint64_t t0 = obs::NowNanos();
    // Acquire the freeze token; concurrent readers serialize here.
    bool expected = false;
    // mo: seq_cst — the token acquisition must be globally ordered before
    // the busy sweeps below: a writer's `busy := 1` / `freeze_` probe pair
    // and our `freeze_ := true` / `busy` probe pair form the Dekker
    // pattern, which only closes in the seq_cst total order.
    while (!s_.freeze_.compare_exchange_strong(expected, true,
                                               std::memory_order_seq_cst)) {
      const uint64_t e = s_.unfrozen_ec_.Epoch();
      // mo: seq_cst — recheck after the epoch snapshot (EventCount
      // protocol) so an unfreeze between snapshot and park is never missed.
      if (s_.freeze_.load(std::memory_order_seq_cst)) {
        s_.unfrozen_ec_.ParkOne(e, [] { return false; }, kFrozenParkBackstop);
      }
      expected = false;
    }
    // Stabilize: wait out every in-flight batch. After this loop no writer
    // touches any shard store until the guard is destroyed — a writer
    // raising `busy` will observe `freeze_ == true` and step aside.
    epochs_.reserve(s_.shards_.size());
    for (const auto& entry : s_.shards_) {
      Shard& shard = *entry;
      while (true) {
        const uint64_t e = s_.stable_ec_.Epoch();
        // mo: seq_cst — the reader half of the Dekker pair: ordered after
        // our `freeze_` publication, so for any in-flight batch either the
        // writer saw the freeze or this load sees `busy == 1`. Reading 0
        // also acquires the writer's release of the shard, making its
        // store mutations visible to the merge.
        if (shard.busy.load(std::memory_order_seq_cst) == 0) break;
        s_.stable_ec_.ParkOne(e, [] { return false; }, kStableParkBackstop);
      }
      // mo: relaxed — ordered behind the seq_cst busy observation above;
      // only compared against itself in VerifyStable.
      epochs_.push_back(shard.epoch.load(std::memory_order_relaxed));
    }
    s_.stat_cells_->freeze_wait_ns.Record(obs::NowNanos() - t0);
  }

  FreezeGuard(const FreezeGuard&) = delete;
  FreezeGuard& operator=(const FreezeGuard&) = delete;

  ~FreezeGuard() {
    // mo: seq_cst — the unfreeze must be ordered before the notify's epoch
    // bump so a writer that rechecks `freeze_` after snapshotting the
    // EventCount epoch cannot see the stale frozen state past the notify.
    s_.freeze_.store(false, std::memory_order_seq_cst);
    s_.unfrozen_ec_.NotifyIfWaiters();
  }

  /// Defense-in-depth: Internal error if any shard applied a batch while
  /// we held the freeze (epoch bumps happen only outside freezes — see
  /// IncrementBatch — so a move here means the protocol was violated).
  Status VerifyStable() const {
    for (size_t i = 0; i < epochs_.size(); ++i) {
      // mo: relaxed — same cell we snapshotted under the freeze we still
      // hold; any mismatch is a protocol violation regardless of ordering.
      if (s_.shards_[i]->epoch.load(std::memory_order_relaxed) != epochs_[i]) {
        return Status::Internal(
            "ShardedCounterStore: shard " + std::to_string(i) +
            " advanced during a frozen read (freeze protocol violated)");
      }
    }
    return Status::OK();
  }

 private:
  const ShardedCounterStore& s_;
  std::vector<uint64_t> epochs_;
};

Result<std::unique_ptr<ShardedCounterStore>> ShardedCounterStore::Make(
    uint64_t num_shards, CounterKind kind, int state_bits, uint64_t n_max,
    uint64_t seed) {
  if (num_shards < 1 || num_shards > 4096) {
    return Status::InvalidArgument("ShardedCounterStore: shards in [1, 4096]");
  }
  // Mergeability gate: merge-on-read only works for kinds whose counters
  // implement MergeFrom (Remark 2.4). Probe with two fresh counters so an
  // unsupported kind (e.g. kCsuros, bit-budget-constructible but not
  // mergeable) fails at construction, not at the first snapshot.
  COUNTLIB_ASSIGN_OR_RETURN(std::unique_ptr<Counter> probe_a,
                            MakeCounterForBits(kind, state_bits, n_max, seed));
  COUNTLIB_ASSIGN_OR_RETURN(
      std::unique_ptr<Counter> probe_b,
      MakeCounterForBits(kind, state_bits, n_max, seed + 1));
  Status mergeable = probe_a->MergeFrom(*probe_b);
  if (!mergeable.ok()) {
    return Status::InvalidArgument(
        "ShardedCounterStore: " + std::string(CounterKindToString(kind)) +
        " counters are not mergeable (" + mergeable.message() +
        "); count this kind with the single-threaded CounterStore");
  }
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(num_shards);
  for (uint64_t i = 0; i < num_shards; ++i) {
    COUNTLIB_ASSIGN_OR_RETURN(
        CounterStore store,
        CounterStore::MakeWithBitBudget(kind, state_bits, n_max,
                                        seed + i * 0x9E3779B97F4A7C15ull));
    auto shard = std::make_unique<Shard>();
    shard->store = std::make_unique<CounterStore>(std::move(store));
    shards.push_back(std::move(shard));
  }
  auto out = std::unique_ptr<ShardedCounterStore>(new ShardedCounterStore(
      std::move(shards), kind, state_bits, n_max, seed));
  // The construction probes double as the per-key read scratch.
  probe_a->Reset();
  probe_b->Reset();
  out->acc_ = std::move(probe_a);
  out->tmp_ = std::move(probe_b);
  out->RegisterMetrics();
  return out;
}

ShardedCounterStore::ShardedCounterStore(
    std::vector<std::unique_ptr<Shard>> shards, CounterKind kind,
    int state_bits, uint64_t n_max, uint64_t seed)
    : shards_(std::move(shards)),
      kind_(kind),
      state_bits_(state_bits),
      n_max_(n_max),
      seed_(seed),
      stat_cells_(std::make_unique<StatCells>()) {}

Status ShardedCounterStore::IncrementBatch(uint64_t lane,
                                           const KeyWeight* updates,
                                           size_t n) {
  if (lane >= shards_.size()) return LaneOutOfRangeStatus(lane, shards_.size());
  if (n == 0) return Status::OK();
  Shard& shard = *shards_[lane];
  // Acquire the shard against a freeze — the writer half of the Dekker
  // pair. Steady state (no freeze): one store to this shard's own busy
  // line and one load of the read-shared freeze_ line, then straight into
  // the private store.
  while (true) {
    // mo: seq_cst — `busy := 1` must be globally ordered before the
    // `freeze_` probe: either the freeze holder sees our busy flag and
    // waits for this batch, or we see its freeze and step aside. Weaker
    // orders would let both sides miss each other.
    shard.busy.store(1, std::memory_order_seq_cst);
    // mo: seq_cst — the probe half of the Dekker pair above.
    if (!freeze_.load(std::memory_order_seq_cst)) break;
    // A reader holds (or is acquiring) the freeze: step aside without
    // having touched the store, wake the reader's stabilization wait, and
    // park until unfrozen.
    // mo: seq_cst — the retreat must be visible to the reader's busy sweep
    // before our notify lands.
    shard.busy.store(0, std::memory_order_seq_cst);
    stable_ec_.NotifyIfWaiters();
    const uint64_t e = unfrozen_ec_.Epoch();
    // mo: seq_cst — recheck after the epoch snapshot (EventCount protocol).
    if (freeze_.load(std::memory_order_seq_cst)) {
      unfrozen_ec_.ParkOne(e, [] { return false; }, kFrozenParkBackstop);
    }
  }
  return ApplyToAcquiredShard(&shard, updates, n);
}

// HOTPATH: every pipeline worker's store apply once its shard is acquired
// (the freeze park above is the one blocking step of IncrementBatch) — no
// allocation and no park once the batch's keys are indexed in the shard.
Status ShardedCounterStore::ApplyToAcquiredShard(Shard* shard_ptr,
                                                 const KeyWeight* updates,
                                                 size_t n) {
  Shard& shard = *shard_ptr;
  // Apply the batch to the private store. No locks — the single-writer-
  // per-lane contract makes this data-race-free, and the freeze handshake
  // keeps readers out.
  Status st = shard.store->IncrementBatch(updates, n);
  // Publish (still inside the busy section, so readers see a consistent
  // trio of pool + mirrors + epoch).
  // mo: relaxed ×2 — gauge mirrors; sampled racily by design.
  shard.keys_mirror.store(shard.store->num_keys(), std::memory_order_relaxed);
  shard.bits_mirror.store(shard.store->TotalStateBits(),
                          std::memory_order_relaxed);
  // mo: relaxed — read only under the freeze, whose seq_cst busy handshake
  // already orders it.
  shard.epoch.fetch_add(1, std::memory_order_relaxed);
  // mo: seq_cst — releases the shard: a freeze holder whose busy sweep
  // reads the 0 acquires every store mutation above; seq_cst (not just
  // release) so the `freeze_` probe below cannot hoist above it.
  shard.busy.store(0, std::memory_order_seq_cst);
  // mo: seq_cst — Dekker closure at batch end: if a reader began acquiring
  // the freeze while we were applying, it is parked waiting for our busy
  // flag — wake it. If this loads false, any later freeze acquisition will
  // re-run its busy sweep and see our 0 without needing the notify.
  if (freeze_.load(std::memory_order_seq_cst)) {
    stable_ec_.NotifyIfWaiters();
  }
  if (st.ok()) {
    stat_cells_->batch_calls.Add(1);
    stat_cells_->batch_updates.Add(n);
  }
  return st;
}

Result<CounterStore> ShardedCounterStore::MergeShardsLocked() const {
  // Fresh seed per cut so repeated snapshots draw independent merge coins.
  ++snapshot_seq_;
  const uint64_t cut_seed = seed_ ^ (snapshot_seq_ * 0xA0761D6478BD642Full);
  COUNTLIB_ASSIGN_OR_RETURN(
      CounterStore merged,
      CounterStore::MakeWithBitBudget(kind_, state_bits_, n_max_, cut_seed));
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t t0 = obs::NowNanos();
    Status st = merged.MergeFrom(*shards_[i]->store);
    if (!st.ok()) {
      return st.WithContext("merging shard " + std::to_string(i));
    }
    stat_cells_->shard_merge_latency_ns.Record(obs::NowNanos() - t0);
  }
  stat_cells_->merge_reads.Add(1);
  return merged;
}

Result<CounterStore> ShardedCounterStore::Snapshot() const {
  FreezeGuard freeze(*this);
  COUNTLIB_ASSIGN_OR_RETURN(CounterStore merged, MergeShardsLocked());
  COUNTLIB_RETURN_NOT_OK(freeze.VerifyStable());
  return merged;
}

Status ShardedCounterStore::ForEach(
    const std::function<void(uint64_t, double)>& fn) const {
  // Merge under the freeze, iterate after it: `fn` never stalls writers.
  COUNTLIB_ASSIGN_OR_RETURN(CounterStore merged, Snapshot());
  return merged.ForEach(fn);
}

Result<std::vector<KeyEstimate>> ShardedCounterStore::TopK(size_t k) const {
  COUNTLIB_ASSIGN_OR_RETURN(CounterStore merged, Snapshot());
  std::vector<KeyEstimate> all;
  all.reserve(merged.num_keys());
  COUNTLIB_RETURN_NOT_OK(merged.ForEach([&all](uint64_t key, double estimate) {
    all.push_back(KeyEstimate{key, estimate});
  }));
  SortTopKByContract(&all, k);
  return all;
}

Result<double> ShardedCounterStore::Estimate(uint64_t key) const {
  FreezeGuard freeze(*this);
  // Per-key merge: decode each shard's state for `key` into the scratch
  // counters (serialized by the freeze token) and fold per Remark 2.4.
  bool found = false;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Counter* into = found ? tmp_.get() : acc_.get();
    COUNTLIB_ASSIGN_OR_RETURN(bool present,
                              shards_[i]->store->ReadKeyState(key, into));
    if (!present) continue;
    if (found) {
      Status st = acc_->MergeFrom(*tmp_);
      if (!st.ok()) {
        return st.WithContext("merging key state from shard " +
                              std::to_string(i));
      }
    }
    found = true;
  }
  COUNTLIB_RETURN_NOT_OK(freeze.VerifyStable());
  if (!found) {
    return Status::NotFound("key " + std::to_string(key) +
                            " never incremented");
  }
  return acc_->Estimate();
}

StoreStats ShardedCounterStore::Stats() const {
  StoreStats stats;
  stats.batch_calls = stat_cells_->batch_calls.Value();
  stats.batch_updates = stat_cells_->batch_updates.Value();
  stats.merge_reads = stat_cells_->merge_reads.Value();
  return stats;
}

uint64_t ShardedCounterStore::NumKeys() const {
  // Distinct keys require the merged view (one key may live in several
  // shards); a failed merge reports 0 rather than a wrong count.
  Result<CounterStore> merged = Snapshot();
  return merged.ok() ? merged->num_keys() : 0;
}

uint64_t ShardedCounterStore::TotalStateBits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    // mo: relaxed — gauge mirror; exact once writers are quiescent.
    total += shard->bits_mirror.load(std::memory_order_relaxed);
  }
  return total;
}

void ShardedCounterStore::RegisterMetrics() {
  obs::Registry& reg = obs::Registry::Default();
  std::vector<obs::Registration>& rs = registrations_;
  rs.reserve(8);
  rs.push_back(reg.RegisterCounter("countlib_store_batch_calls_total",
                                   &stat_cells_->batch_calls));
  rs.push_back(reg.RegisterCounter("countlib_store_batch_updates_total",
                                   &stat_cells_->batch_updates));
  rs.push_back(reg.RegisterCounter("countlib_store_merge_reads_total",
                                   &stat_cells_->merge_reads));
  rs.push_back(reg.RegisterHistogram("countlib_store_shard_merge_latency_ns",
                                     &stat_cells_->shard_merge_latency_ns));
  rs.push_back(reg.RegisterHistogram("countlib_store_freeze_wait_ns",
                                     &stat_cells_->freeze_wait_ns));
  // Gauges read relaxed mirrors only: they run under the registry mutex
  // (level 60) and must never freeze or park.
  rs.push_back(reg.RegisterGauge("countlib_store_shards", [this] {
    return static_cast<double>(shards_.size());
  }));
  rs.push_back(reg.RegisterGauge("countlib_store_shard_keys", [this] {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      // mo: relaxed — gauge mirror; a key resident in s shards counts s
      // times here (upper bound on distinct keys; exact merge is NumKeys).
      total += shard->keys_mirror.load(std::memory_order_relaxed);
    }
    return static_cast<double>(total);
  }));
  rs.push_back(reg.RegisterGauge("countlib_store_state_bits", [this] {
    return static_cast<double>(TotalStateBits());
  }));
}

}  // namespace analytics
}  // namespace countlib
