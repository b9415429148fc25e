#include "analytics/counter_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "baselines/csuros.h"
#include "baselines/exact_counter.h"
#include "core/morris.h"
#include "core/sampling_counter.h"
#include "util/logging.h"
#include "util/math.h"

namespace countlib {
namespace analytics {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the slot codec reads LSB-first bit fields as native words");

namespace {

/// Bytes per index entry: u64 key, then u32 slot, unpadded.
constexpr uint64_t kEntryBytes = 12;
constexpr uint64_t kInitialIndexCapacity = 16;
/// Pool bytes past the last slot, so both words of any slot load in
/// bounds: a slot starts at most 7 bits into its first byte.
constexpr uint64_t kPoolPadBytes = 16;
/// Widest stride the word codec takes (every MakeCounterForBits counter).
constexpr int kMaxStrideBits = 62;
/// How far ahead IncrementBatch looks up (D) and prefetches (2D) updates.
constexpr size_t kPrefetchDistance = 8;

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

void PrefetchRead(const void* p) { __builtin_prefetch(p); }

/// Cold-path results of the write path, kept out of the allocation-free
/// IncrementBatch.
Status SlotCapacityStatus() {
  return Status::CapacityExceeded(
      "CounterStore: slot ids exhausted (2^32-1 slots per store)");
}

Status SlotWidthStatus() {
  return Status::Internal("CounterStore: packed state wider than the stride");
}

Status NoApplyLoopStatus(CounterKind kind) {
  return Status::Internal(std::string("CounterStore: no apply loop for kind ") +
                          CounterKindToString(kind));
}

}  // namespace

// ---------------------------------------------------------------------------
// KeyIndex
// ---------------------------------------------------------------------------

CounterStore::KeyIndex::KeyIndex() { Grow(kInitialIndexCapacity); }

uint64_t CounterStore::KeyIndex::Home(uint64_t key) const {
  // Multiplicative hashing on the top bits, with the key's high half
  // folded in first so keys differing only there still spread.
  return ((key ^ (key >> 32)) * 0x9E3779B97F4A7C15ull) >> shift_;
}

uint32_t CounterStore::KeyIndex::Find(uint64_t key) const {
  const uint8_t* base = entries_.data();
  for (uint64_t i = Home(key);; i = (i + 1) & mask_) {
    const uint8_t* e = base + i * kEntryBytes;
    const uint32_t slot = LoadU32(e + 8);
    if (slot == kEmptySlot) return kEmptySlot;
    if (LoadU64(e) == key) return slot;
  }
}

void CounterStore::KeyIndex::Prefetch(uint64_t key) const {
  PrefetchRead(entries_.data() + Home(key) * kEntryBytes);
}

void CounterStore::KeyIndex::Insert(uint64_t key, uint32_t slot) {
  if ((size_ + 1) * 4 > (mask_ + 1) * 3) Grow(2 * (mask_ + 1));
  uint8_t* base = entries_.data();
  uint64_t i = Home(key);
  while (LoadU32(base + i * kEntryBytes + 8) != kEmptySlot) i = (i + 1) & mask_;
  StoreU64(base + i * kEntryBytes, key);
  StoreU32(base + i * kEntryBytes + 8, slot);
  ++size_;
}

void CounterStore::KeyIndex::Reserve(uint64_t keys) {
  uint64_t capacity = mask_ + 1;
  while (keys * 4 > capacity * 3) capacity *= 2;
  if (capacity != mask_ + 1) Grow(capacity);
}

template <typename Fn>
void CounterStore::KeyIndex::ForEachEntry(Fn&& fn) const {
  const uint8_t* base = entries_.data();
  for (uint64_t i = 0; i < entries_.size(); i += kEntryBytes) {
    const uint32_t slot = LoadU32(base + i + 8);
    if (slot != kEmptySlot) fn(LoadU64(base + i), slot);
  }
}

void CounterStore::KeyIndex::Grow(uint64_t capacity) {
  std::vector<uint8_t> old = std::move(entries_);
  // All-ones bytes: every entry's slot field reads kEmptySlot.
  entries_.assign(capacity * kEntryBytes, 0xFF);
  mask_ = capacity - 1;
  shift_ = 64 - FloorLog2(capacity);
  size_ = 0;
  for (uint64_t i = 0; i < old.size(); i += kEntryBytes) {
    const uint32_t slot = LoadU32(old.data() + i + 8);
    if (slot != kEmptySlot) Insert(LoadU64(old.data() + i), slot);
  }
}

// ---------------------------------------------------------------------------
// CounterStore
// ---------------------------------------------------------------------------

CounterStore::CounterStore(CounterKind kind, std::unique_ptr<Counter> scratch,
                           uint64_t zero_word, int stride_bits)
    : kind_(kind),
      scratch_(std::move(scratch)),
      zero_word_(zero_word),
      stride_bits_(stride_bits),
      stride_mask_((uint64_t{1} << stride_bits) - 1),
      pool_(kPoolPadBytes, 0) {}

Result<CounterStore> CounterStore::MakeWithBitBudget(CounterKind kind,
                                                     int state_bits, uint64_t n_max,
                                                     uint64_t seed) {
  COUNTLIB_ASSIGN_OR_RETURN(std::unique_ptr<Counter> scratch,
                            MakeCounterForBits(kind, state_bits, n_max, seed));
  const int stride = scratch->StateBits();
  if (stride < 1 || stride > kMaxStrideBits) {
    return Status::InvalidArgument("CounterStore: state width " +
                                   std::to_string(stride) +
                                   " bits outside the slot codec's [1, 62]");
  }
  const uint64_t zero_word = scratch->PackState();
  return CounterStore(kind, std::move(scratch), zero_word, stride);
}

uint64_t CounterStore::DataBytes(uint64_t slots) const {
  return (slots * static_cast<uint64_t>(stride_bits_) + 7) / 8;
}

uint64_t CounterStore::ReadWord(uint64_t slot) const {
  const uint64_t bit = slot * static_cast<uint64_t>(stride_bits_);
  const uint8_t* p = pool_.data() + bit / 8;
  const unsigned shift = static_cast<unsigned>(bit % 8);
  uint64_t word = LoadU64(p) >> shift;
  if (shift + static_cast<unsigned>(stride_bits_) > 64) {
    word |= LoadU64(p + 8) << (64 - shift);
  }
  return word & stride_mask_;
}

void CounterStore::WriteWord(uint64_t slot, uint64_t word) {
  const uint64_t bit = slot * static_cast<uint64_t>(stride_bits_);
  uint8_t* p = pool_.data() + bit / 8;
  const unsigned shift = static_cast<unsigned>(bit % 8);
  StoreU64(p, (LoadU64(p) & ~(stride_mask_ << shift)) | (word << shift));
  if (shift + static_cast<unsigned>(stride_bits_) > 64) {
    const uint64_t high_mask = stride_mask_ >> (64 - shift);
    StoreU64(p + 8,
             (LoadU64(p + 8) & ~high_mask) | (word >> (64 - shift)));
  }
}

Status CounterStore::AppendSlot(uint32_t* slot) {
  if (num_slots_ >= KeyIndex::kEmptySlot) return SlotCapacityStatus();
  const uint64_t needed = DataBytes(num_slots_ + 1) + kPoolPadBytes;
  if (needed > pool_.size()) pool_.resize(needed, 0);
  *slot = static_cast<uint32_t>(num_slots_++);
  WriteWord(*slot, zero_word_);
  return Status::OK();
}

Result<uint32_t> CounterStore::FindOrCreateSlot(uint64_t key) {
  uint32_t slot = index_.Find(key);
  if (slot != KeyIndex::kEmptySlot) return slot;
  COUNTLIB_RETURN_NOT_OK(AppendSlot(&slot));
  index_.Insert(key, slot);
  return slot;
}

Status CounterStore::UnpackSlotInto(uint64_t slot, Counter* into) const {
  return into->UnpackState(ReadWord(slot));
}

Status CounterStore::Increment(uint64_t key, uint64_t weight) {
  const KeyWeight update{key, weight};
  return IncrementBatch(&update, 1);
}

Status CounterStore::IncrementBatch(const KeyWeight* updates, size_t n) {
  // MakeCounterForBits builds exactly these four classes, one per kind.
  Counter* scratch = scratch_.get();
  switch (kind_) {
    case CounterKind::kExact:
      return ApplyBatch(static_cast<ExactCounter*>(scratch), updates, n);
    case CounterKind::kMorris:
      return ApplyBatch(static_cast<MorrisCounter*>(scratch), updates, n);
    case CounterKind::kSampling:
      return ApplyBatch(static_cast<SamplingCounter*>(scratch), updates, n);
    case CounterKind::kCsuros:
      return ApplyBatch(static_cast<CsurosCounter*>(scratch), updates, n);
    default:
      return NoApplyLoopStatus(kind_);
  }
}

// HOTPATH: the store apply step of every pipeline batch — no allocation
// once the batch's keys are indexed (new keys grow the index and the pool
// inside the untagged AppendSlot / KeyIndex::Insert).
template <typename C>
Status CounterStore::ApplyBatch(C* counter, const KeyWeight* updates, size_t n) {
  constexpr size_t kD = kPrefetchDistance;
  // Software pipeline over three stages: the index entry of update i+2D is
  // prefetched, update i+D is looked up (its slot's pool word prefetched
  // and its slot parked in `ahead`), and update i is applied. Lookups only
  // read the index; a key still absent when update i comes due is
  // inserted then, so slots are created, and coins drawn, in input order.
  uint32_t ahead[kD];
  const auto look_up = [&](size_t j) {
    const uint32_t slot = index_.Find(updates[j].key);
    if (slot != KeyIndex::kEmptySlot) {
      PrefetchRead(pool_.data() + slot * static_cast<uint64_t>(stride_bits_) / 8);
    }
    ahead[j % kD] = slot;
  };
  for (size_t j = 0; j < n && j < 2 * kD; ++j) index_.Prefetch(updates[j].key);
  for (size_t j = 0; j < n && j < kD; ++j) look_up(j);
  for (size_t i = 0; i < n; ++i) {
    uint32_t slot = ahead[i % kD];
    if (i + 2 * kD < n) index_.Prefetch(updates[i + 2 * kD].key);
    if (i + kD < n) look_up(i + kD);
    if (slot == KeyIndex::kEmptySlot) {
      COUNTLIB_ASSIGN_OR_RETURN(slot, FindOrCreateSlot(updates[i].key));
    }
    COUNTLIB_RETURN_NOT_OK(counter->UnpackState(ReadWord(slot)));
    counter->IncrementMany(updates[i].weight);
    const uint64_t word = counter->PackState();
    if (word > stride_mask_) return SlotWidthStatus();
    WriteWord(slot, word);
  }
  return Status::OK();
}

Status CounterStore::ForEach(const std::function<void(uint64_t, double)>& fn) const {
  Status st = Status::OK();
  index_.ForEachEntry([&](uint64_t key, uint32_t slot) {
    if (!st.ok()) return;
    st = UnpackSlotInto(slot, scratch_.get());
    if (st.ok()) fn(key, scratch_->Estimate());
  });
  return st;
}

Result<double> CounterStore::Estimate(uint64_t key) const {
  const uint32_t slot = index_.Find(key);
  if (slot == KeyIndex::kEmptySlot) {
    return Status::NotFound("key " + std::to_string(key) + " never incremented");
  }
  COUNTLIB_RETURN_NOT_OK(UnpackSlotInto(slot, scratch_.get()));
  return scratch_->Estimate();
}

Result<bool> CounterStore::ReadKeyState(uint64_t key, Counter* into) const {
  if (into->StateBits() != stride_bits_) {
    return Status::FailedPrecondition(
        "ReadKeyState: counter StateBits (" +
        std::to_string(into->StateBits()) + ") != store stride (" +
        std::to_string(stride_bits_) + ")");
  }
  const uint32_t slot = index_.Find(key);
  if (slot == KeyIndex::kEmptySlot) return false;
  COUNTLIB_RETURN_NOT_OK(UnpackSlotInto(slot, into));
  return true;
}

Status CounterStore::MergeFrom(const CounterStore& donor) {
  if (&donor == this) {
    return Status::InvalidArgument("CounterStore::MergeFrom: self-merge");
  }
  if (donor.stride_bits_ != stride_bits_) {
    return Status::FailedPrecondition(
        "CounterStore::MergeFrom: stride mismatch (" +
        std::to_string(donor.stride_bits_) + " vs " +
        std::to_string(stride_bits_) + " bits/key)");
  }
  index_.Reserve(std::max(index_.size(), donor.index_.size()));
  Status st = Status::OK();
  donor.index_.ForEachEntry([&](uint64_t key, uint32_t donor_slot) {
    if (!st.ok()) return;
    uint32_t slot = index_.Find(key);
    if (slot == KeyIndex::kEmptySlot) {
      // Key only the donor has seen: its packed state is already
      // distributed as one counter over that key's whole stream, so a raw
      // copy IS the merge.
      st = AppendSlot(&slot);
      if (!st.ok()) return;
      index_.Insert(key, slot);
      WriteWord(slot, donor.ReadWord(donor_slot));
      return;
    }
    // Both sides hold state: decode each into its store's scratch counter
    // and merge per Remark 2.4. Decoding through the donor's scratch is
    // within the single-caller-at-a-time contract both stores already
    // carry (the sharded store only merges frozen shards).
    st = donor.UnpackSlotInto(donor_slot, donor.scratch_.get());
    if (st.ok()) st = UnpackSlotInto(slot, scratch_.get());
    if (st.ok()) st = scratch_->MergeFrom(*donor.scratch_);
    if (!st.ok()) {
      st = st.WithContext("merging key " + std::to_string(key));
      return;
    }
    const uint64_t word = scratch_->PackState();
    if (word > stride_mask_) {
      st = SlotWidthStatus();
      return;
    }
    WriteWord(slot, word);
  });
  return st;
}

namespace {
constexpr char kStoreMagic[8] = {'c', 'l', 's', 't', 'o', 'r', 'e', '1'};
}  // namespace

Status CounterStore::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  auto write_u64 = [f](uint64_t v) {
    return std::fwrite(&v, sizeof(v), 1, f) == 1;
  };
  bool ok = std::fwrite(kStoreMagic, sizeof(kStoreMagic), 1, f) == 1;
  ok = ok && write_u64(static_cast<uint64_t>(stride_bits_));
  ok = ok && write_u64(num_slots_);
  ok = ok && write_u64(index_.size());
  index_.ForEachEntry([&](uint64_t key, uint32_t slot) {
    ok = ok && write_u64(key) && write_u64(slot);
  });
  const uint64_t pool_bytes = DataBytes(num_slots_);
  ok = ok && write_u64(pool_bytes);
  ok = ok && (pool_bytes == 0 ||
              std::fwrite(pool_.data(), 1, pool_bytes, f) == pool_bytes);
  if (std::fclose(f) != 0 || !ok) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status CounterStore::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open for read: " + path);
  auto fail = [f, &path](const std::string& what) {
    std::fclose(f);
    return Status::IOError(what + ": " + path);
  };
  char magic[8];
  if (std::fread(magic, sizeof(magic), 1, f) != 1 ||
      std::memcmp(magic, kStoreMagic, sizeof(magic)) != 0) {
    return fail("bad store header");
  }
  auto read_u64 = [f](uint64_t* v) { return std::fread(v, sizeof(*v), 1, f) == 1; };
  // Bytes left in the file: sizes read from the header are checked against
  // it before anything is allocated for them.
  auto remaining = [f]() -> uint64_t {
    const long pos = std::ftell(f);
    if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
    const long end = std::ftell(f);
    if (end < pos || std::fseek(f, pos, SEEK_SET) != 0) return 0;
    return static_cast<uint64_t>(end - pos);
  };
  uint64_t stride = 0, slots = 0, keys = 0;
  if (!read_u64(&stride) || !read_u64(&slots) || !read_u64(&keys)) {
    return fail("truncated header");
  }
  if (stride != static_cast<uint64_t>(stride_bits_)) {
    std::fclose(f);
    return Status::FailedPrecondition(
        "store stride mismatch: file has " + std::to_string(stride) +
        " bits/key, this store is configured for " +
        std::to_string(stride_bits_));
  }
  if (slots > KeyIndex::kEmptySlot) {
    std::fclose(f);
    return Status::CapacityExceeded("store file holds " + std::to_string(slots) +
                                    " slots, more than 2^32-1: " + path);
  }
  // Every key owns exactly one slot: a second claim on a slot would alias
  // two counters, and an unclaimed slot is state no key can reach.
  if (keys != slots) return fail("key count differs from slot count");
  if (keys > remaining() / 16) return fail("truncated index");
  KeyIndex index;
  index.Reserve(keys);
  std::vector<uint64_t> claimed((slots + 63) / 64, 0);
  for (uint64_t i = 0; i < keys; ++i) {
    uint64_t key = 0, slot = 0;
    if (!read_u64(&key) || !read_u64(&slot)) return fail("truncated index");
    if (slot >= slots) return fail("slot out of range");
    const uint64_t bit = uint64_t{1} << (slot % 64);
    if ((claimed[slot / 64] & bit) != 0) return fail("two keys share a slot");
    claimed[slot / 64] |= bit;
    if (index.Find(key) != KeyIndex::kEmptySlot) return fail("duplicate key");
    index.Insert(key, static_cast<uint32_t>(slot));
  }
  uint64_t pool_bytes = 0;
  if (!read_u64(&pool_bytes)) return fail("truncated pool header");
  if (pool_bytes != DataBytes(slots)) return fail("pool size mismatch");
  if (pool_bytes > remaining()) return fail("truncated pool");
  std::vector<uint8_t> pool(pool_bytes + kPoolPadBytes, 0);
  if (pool_bytes > 0 && std::fread(pool.data(), 1, pool_bytes, f) != pool_bytes) {
    return fail("truncated pool");
  }
  std::fclose(f);
  // Validate every slot decodes cleanly before committing.
  pool_.swap(pool);
  std::swap(num_slots_, slots);
  Status st = Status::OK();
  index.ForEachEntry([&](uint64_t key, uint32_t slot) {
    if (!st.ok()) return;
    st = UnpackSlotInto(slot, scratch_.get());
    if (!st.ok()) st = st.WithContext("corrupt slot for key " + std::to_string(key));
  });
  if (!st.ok()) {
    pool_.swap(pool);
    std::swap(num_slots_, slots);
    return st;
  }
  index_ = std::move(index);
  return Status::OK();
}

double CounterStore::IndexBitsPerKey() const {
  if (index_.size() == 0) return 0.0;
  return 8.0 * static_cast<double>(index_.bytes()) /
         static_cast<double>(index_.size());
}

}  // namespace analytics
}  // namespace countlib
