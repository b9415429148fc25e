#include "pipeline/batch_aggregator.h"

#include "util/math.h"

namespace countlib {
namespace pipeline {

BatchAggregator::BatchAggregator(uint64_t max_batch) {
  uint64_t capacity = 2;
  unsigned bits = 1;
  while (capacity < 2 * max_batch) {
    capacity <<= 1;
    ++bits;
  }
  table_.assign(capacity, 0);
  out_.resize(max_batch);
  buckets_.resize(max_batch);
  mask_ = capacity - 1;
  shift_ = 64 - bits;
}

// HOTPATH: the drain step between ring pop and store apply — one probe
// per event and one reset store per distinct key; no allocation permitted.
size_t BatchAggregator::Fold(const Event* events, size_t n) {
  // Locals, so the stores below (which may alias members) force no reloads.
  uint32_t* const table = table_.data();
  analytics::KeyWeight* const out = out_.data();
  uint32_t* const buckets = buckets_.data();
  const uint64_t mask = mask_;
  const unsigned shift = shift_;
  uint32_t entries = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = events[i].key;
    for (uint64_t b = Hash(key) >> shift;; b = (b + 1) & mask) {
      const uint32_t tag = table[b];
      if (tag == 0) {
        out[entries] = analytics::KeyWeight{key, events[i].weight};
        buckets[entries] = static_cast<uint32_t>(b);
        table[b] = ++entries;
        break;
      }
      if (out[tag - 1].key == key) {
        out[tag - 1].weight = SaturatingAdd(out[tag - 1].weight,
                                            events[i].weight);
        break;
      }
    }
  }
  // Empty exactly the buckets this fold used.
  for (uint32_t j = 0; j < entries; ++j) table[buckets[j]] = 0;
  return entries;
}

}  // namespace pipeline
}  // namespace countlib
