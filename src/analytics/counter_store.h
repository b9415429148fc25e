/// \file counter_store.h
/// \brief The paper's motivating application (§1): an analytics system
/// maintaining a very large number of per-key approximate counters
/// ("the number of visits to each page on Wikipedia"), where shaving bits
/// per counter is the whole game.
///
/// `CounterStore` keeps per-key counter *state* bit-packed in a dense pool:
/// each key owns exactly `StateBits()` bits (the provisioned program state
/// of the chosen algorithm — e.g. 18 bits for a sampling counter at
/// ε=10%, δ=1%, n_max=2^24, vs 64 for a naive machine counter).
///
/// ## The update model
///
/// An update is one word load, `UnpackState`, the counter's
/// `IncrementMany`, `PackState`, and one word store: the slot is read and
/// written with one unaligned 64-bit access plus shift and mask (a second
/// word only when the slot straddles the first word's end), so the
/// O(log N)-bit scratch registers of the paper's model are machine
/// registers and only the *stored* state is precious. Strides are at most
/// 62 bits — every `MakeCounterForBits` counter fits. The store records
/// its `CounterKind`, and `IncrementBatch` switches on it once per batch
/// into an apply loop compiled for that counter class (exact, Morris,
/// sampling or Csuros, each `final` with its codec and weight-1 step
/// inline), so an update makes no virtual call; a weight-1 update of an
/// approximate kind is one Bernoulli draw. The loop pipelines the memory
/// traffic: it prefetches the index entry of update i+2D and the slot of
/// update i+D while it applies update i, in input order, so the coins
/// drawn match one `Increment` per update. Reads, merges and persistence
/// decode slots through the virtual `Counter` interface.
///
/// ## The index
///
/// Keys map to slots through one open-addressing, linear-probing array of
/// 12-byte {u64 key, u32 slot} entries (slot 2^32−1 marks a free entry, so
/// every u64 key is valid). It doubles at 3/4 load. Its memory is measured,
/// not modeled: `IndexBitsPerKey()` is the array's bytes over the key
/// count. It is the same for any counter algorithm and so cancels in
/// comparisons.

#ifndef COUNTLIB_ANALYTICS_COUNTER_STORE_H_
#define COUNTLIB_ANALYTICS_COUNTER_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analytics/key_weight.h"
#include "core/counter.h"
#include "core/counter_factory.h"
#include "util/status.h"

namespace countlib {
namespace analytics {

/// \brief A key together with its current estimate (snapshot accessors).
struct KeyEstimate {
  uint64_t key;
  double estimate;
};

/// \brief Bit-packed pool of many per-key approximate counters.
class CounterStore {
 public:
  /// Builds a store whose per-key counters are `kind` calibrated to
  /// `state_bits` bits for counts up to `n_max` (kinds supported by
  /// `MakeCounterForBits`).
  static Result<CounterStore> MakeWithBitBudget(CounterKind kind, int state_bits,
                                                uint64_t n_max, uint64_t seed);

  /// Adds `weight` increments to `key`'s counter (creating it on first use).
  Status Increment(uint64_t key, uint64_t weight = 1);

  /// Applies `n` updates in one pass, in input order (see the file
  /// comment). Callers that pre-aggregate duplicate keys (the ingestion
  /// pipeline does) pay one slot unpack/pack per *distinct* key instead of
  /// per event. Allocation-free when every key is already indexed.
  /// `CapacityExceeded` when a new key needs slot 2^32−1. Stops at the
  /// first error; already-applied updates stay applied.
  Status IncrementBatch(const KeyWeight* updates, size_t n);

  /// The key's current estimate; NotFound if never incremented.
  Result<double> Estimate(uint64_t key) const;

  /// Decodes `key`'s packed state into `into`, which must be an
  /// identically-configured counter (same algorithm and calibration, so its
  /// `StateBits()` equals this store's stride). Returns false (with `into`
  /// untouched) when the key was never incremented. The cross-shard
  /// per-key read path: merge-on-read stores decode each shard's state
  /// into scratch counters and `Counter::MergeFrom` them together.
  Result<bool> ReadKeyState(uint64_t key, Counter* into) const;

  /// Merges every key of `donor` into this store (Remark 2.4: each merged
  /// per-key counter is distributed exactly as one counter over the
  /// concatenated per-key streams). Both stores must be identically
  /// configured — the stride is checked, the algorithm is the caller's
  /// contract (as with LoadFromFile). Keys new to this store are copied
  /// bit-for-bit; keys present in both are merged via `Counter::MergeFrom`.
  /// Stops at the first error; already-merged keys stay merged.
  Status MergeFrom(const CounterStore& donor);

  /// Invokes `fn(key, estimate)` for every key in the store, decoding each
  /// packed slot once. Iteration order is unspecified.
  Status ForEach(const std::function<void(uint64_t, double)>& fn) const;

  /// Number of distinct keys.
  uint64_t num_keys() const { return index_.size(); }

  /// Bits of counter state per key (the pool stride).
  int bits_per_key() const { return stride_bits_; }

  /// Total bits of packed counter state (stride * keys).
  uint64_t TotalStateBits() const {
    return static_cast<uint64_t>(stride_bits_) * index_.size();
  }

  /// Measured bits of index per key: the probe array's allocated bytes
  /// times 8 over the key count (0 for an empty store). Algorithm-
  /// independent.
  double IndexBitsPerKey() const;

  /// The algorithm's display name.
  std::string AlgorithmName() const { return scratch_->Name(); }

  /// Persists the store (key index + packed counter pool) to a binary
  /// file. The counter algorithm and calibration are NOT stored — the
  /// loader must construct a store with identical parameters first (they
  /// are program constants in the paper's model); a stride checksum guards
  /// against mismatches. Layout, all integers u64 little-endian: the magic
  /// "clstore1", the stride, the slot count, the key count, one (key, slot)
  /// pair per key (in unspecified order; the counts are equal and each
  /// slot is named by exactly one pair, since a slot is appended only for
  /// a new key, and a load rejects any other file), the pool byte count
  /// ceil(slots * stride / 8), then the pool bytes (slot i holds bits
  /// [i*stride, (i+1)*stride), LSB-first within bytes).
  Status SaveToFile(const std::string& path) const;

  /// Restores a store previously saved with `SaveToFile` into this
  /// (identically-configured) store, replacing its contents.
  Status LoadFromFile(const std::string& path);

 private:
  /// The key → slot probe array (see the file comment).
  class KeyIndex {
   public:
    /// Marks a free entry; also one past the largest slot id.
    static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

    KeyIndex();

    uint64_t size() const { return size_; }
    /// Allocated bytes of the probe array.
    uint64_t bytes() const { return entries_.size(); }
    /// The key's slot, or kEmptySlot when absent.
    uint32_t Find(uint64_t key) const;
    /// Prefetches the key's home entry.
    void Prefetch(uint64_t key) const;
    /// Maps absent `key` to `slot`, first doubling the array if the insert
    /// would pass 3/4 load.
    void Insert(uint64_t key, uint32_t slot);
    /// Grows the array (out of line) until `keys` entries fit under 3/4 load.
    void Reserve(uint64_t keys);
    /// Invokes `fn(key, slot)` for every entry, in array order.
    template <typename Fn>
    void ForEachEntry(Fn&& fn) const;

   private:
    uint64_t Home(uint64_t key) const;
    void Grow(uint64_t capacity);

    std::vector<uint8_t> entries_;  // capacity * 12 bytes
    uint64_t mask_ = 0;             // capacity - 1 (a power of two)
    int shift_ = 64;                // 64 - log2(capacity)
    uint64_t size_ = 0;
  };

  CounterStore(CounterKind kind, std::unique_ptr<Counter> scratch,
               uint64_t zero_word, int stride_bits);

  /// Pool bytes holding `slots` slots, excluding the load padding.
  uint64_t DataBytes(uint64_t slots) const;
  /// The slot's packed word (one or two unaligned loads).
  uint64_t ReadWord(uint64_t slot) const;
  /// Stores `word` (at most stride bits) into the slot.
  void WriteWord(uint64_t slot, uint64_t word);
  /// The key's slot, creating a fresh one (the zero state) if absent.
  Result<uint32_t> FindOrCreateSlot(uint64_t key);
  /// Appends one fresh slot to the pool, growing it (out of line) as needed.
  Status AppendSlot(uint32_t* slot);
  /// `IncrementBatch`'s loop for the counter class `C` that `kind_` names:
  /// each update runs `counter`'s UnpackState → IncrementMany → PackState
  /// on its slot, called directly (`C` is final). Only counter_store.cc
  /// instantiates it.
  template <typename C>
  Status ApplyBatch(C* counter, const KeyWeight* updates, size_t n);
  /// Decodes the slot into `into` (any identically-configured counter).
  Status UnpackSlotInto(uint64_t slot, Counter* into) const;

  CounterKind kind_;  // picks IncrementBatch's apply loop
  // Of the class MakeCounterForBits builds for kind_.
  std::unique_ptr<Counter> scratch_;
  uint64_t zero_word_;  // PackState() of a fresh counter
  int stride_bits_;
  uint64_t stride_mask_;
  std::vector<uint8_t> pool_;  // DataBytes(num_slots_) + load padding
  uint64_t num_slots_ = 0;
  KeyIndex index_;
};

}  // namespace analytics
}  // namespace countlib

#endif  // COUNTLIB_ANALYTICS_COUNTER_STORE_H_
