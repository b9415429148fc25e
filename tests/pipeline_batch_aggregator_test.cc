// Unit tests for the drain path's fold (pipeline/batch_aggregator.h): exact
// sums in first-appearance order, probe chains that survive collisions and
// wrap past the last bucket, and a table that is empty again after every
// fold however often it is reused. Saturation is pinned end to end by
// IngestPipelineTest.FoldSaturatesLikeTheCounters.

#include "pipeline/batch_aggregator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "analytics/key_weight.h"
#include "pipeline/event.h"

namespace countlib {
namespace pipeline {
namespace {

using analytics::KeyWeight;

// The fold's contract, written the slow way: one entry per distinct key in
// first-appearance order, weights summed with saturation.
std::vector<KeyWeight> ReferenceFold(const std::vector<Event>& events) {
  std::vector<KeyWeight> out;
  for (const Event& e : events) {
    bool found = false;
    for (KeyWeight& kw : out) {
      if (kw.key != e.key) continue;
      kw.weight = kw.weight > UINT64_MAX - e.weight ? UINT64_MAX
                                                    : kw.weight + e.weight;
      found = true;
      break;
    }
    if (!found) out.push_back(KeyWeight{e.key, e.weight});
  }
  return out;
}

std::vector<KeyWeight> Fold(BatchAggregator* agg,
                            const std::vector<Event>& events) {
  const size_t n = agg->Fold(events.data(), events.size());
  return std::vector<KeyWeight>(agg->batch(), agg->batch() + n);
}

void ExpectSame(const std::vector<KeyWeight>& got,
                const std::vector<KeyWeight>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "entry " << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << "entry " << i;
  }
}

// `count` distinct keys whose probes all start at bucket `home`.
std::vector<uint64_t> KeysWithHome(const BatchAggregator& agg, uint64_t home,
                                   size_t count) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < count; ++k) {
    if (agg.HomeBucket(k) == home) keys.push_back(k);
  }
  return keys;
}

TEST(BatchAggregatorTest, CapacityIsAPowerOfTwoAtLeastTwiceMaxBatch) {
  EXPECT_EQ(BatchAggregator(1).capacity(), 2u);
  EXPECT_EQ(BatchAggregator(3).capacity(), 8u);
  EXPECT_EQ(BatchAggregator(1024).capacity(), 2048u);
  EXPECT_EQ(BatchAggregator(1025).capacity(), 4096u);
  EXPECT_EQ(BatchAggregator(BatchAggregator::kMaxBatch).capacity(),
            2 * BatchAggregator::kMaxBatch);
}

TEST(BatchAggregatorTest, DuplicatesFoldToExactSums) {
  BatchAggregator agg(16);
  const std::vector<Event> events = {{5, 1}, {9, 2},  {5, 3}, {5, 4},
                                     {9, 5}, {11, 6}, {5, 7}};
  ExpectSame(Fold(&agg, events), {{5, 15}, {9, 7}, {11, 6}});
}

TEST(BatchAggregatorTest, OutputComesInFirstAppearanceOrder) {
  BatchAggregator agg(8);
  const std::vector<Event> events = {{40, 1}, {7, 1}, {40, 1}, {3, 1},
                                     {7, 1},  {99, 1}, {3, 1}, {1, 1}};
  ExpectSame(Fold(&agg, events), {{40, 2}, {7, 2}, {3, 2}, {99, 1}, {1, 1}});
}

// A full batch of keys that all hash to one bucket fills a contiguous run
// of the table; with the home at the last bucket the run wraps to bucket 0.
// Every key keeps its own sum, duplicates included.
TEST(BatchAggregatorTest, KeysSharingAHomeBucketAllSurvive) {
  BatchAggregator agg(16);
  for (uint64_t home : {uint64_t{3}, agg.capacity() - 1}) {
    SCOPED_TRACE(home);
    const std::vector<uint64_t> keys = KeysWithHome(agg, home, 8);
    std::vector<Event> events;
    for (int round = 0; round < 2; ++round) {
      for (size_t i = 0; i < keys.size(); ++i) {
        events.push_back(Event{keys[i], 10 * (i + 1) + round});
      }
    }
    ExpectSame(Fold(&agg, events), ReferenceFold(events));
    // The same colliding keys again, in reverse order: the table kept
    // nothing from the fold above.
    std::vector<Event> reversed(events.rbegin(), events.rend());
    ExpectSame(Fold(&agg, reversed), ReferenceFold(reversed));
  }
}

// One table reused for many more folds than it has buckets: keys recur
// across batches at different output positions, so a bucket left behind
// by an earlier fold would send a later key's weight to a stale entry
// past the end of the output. Every fold must match the reference.
TEST(BatchAggregatorTest, ReuseOverManyBatchesLeaksNoKey) {
  BatchAggregator agg(8);
  std::mt19937_64 rng(42);
  const std::vector<uint64_t> colliding = KeysWithHome(agg, 0, 8);
  for (uint64_t batch = 0; batch < 100 * agg.capacity(); ++batch) {
    std::vector<Event> events(1 + rng() % 8);
    for (Event& e : events) {
      // Half the batches draw from keys that share a home bucket, half
      // from a small universe, so probe runs form and recur.
      e.key = batch % 2 == 0 ? colliding[rng() % colliding.size()]
                             : rng() % 24;
      e.weight = 1 + rng() % 1000;
    }
    SCOPED_TRACE(batch);
    ExpectSame(Fold(&agg, events), ReferenceFold(events));
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
