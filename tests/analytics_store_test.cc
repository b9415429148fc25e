// Tests for the analytics stores: the bit-packed multi-counter pool and
// the sharded, merge-based aggregation over it.

#include <gtest/gtest.h>

#include <cmath>

#include "analytics/counter_store.h"
#include "analytics/sharded_counter_store.h"
#include "stats/error_metrics.h"
#include "stream/trace.h"

namespace countlib {
namespace {

TEST(CounterStoreTest, ExactKindStoresExactCounts) {
  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kExact, 20, 999999, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.Increment(7, 100).ok());
  ASSERT_TRUE(store.Increment(9, 250).ok());
  ASSERT_TRUE(store.Increment(7, 11).ok());
  EXPECT_DOUBLE_EQ(store.Estimate(7).ValueOrDie(), 111.0);
  EXPECT_DOUBLE_EQ(store.Estimate(9).ValueOrDie(), 250.0);
  EXPECT_EQ(store.num_keys(), 2u);
  EXPECT_EQ(store.bits_per_key(), 20);
  EXPECT_EQ(store.TotalStateBits(), 40u);
}

TEST(CounterStoreTest, UnknownKeyIsNotFound) {
  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kSampling, 18, 1u << 20, 1)
                   .ValueOrDie();
  EXPECT_TRUE(store.Estimate(404).status().IsNotFound());
}

TEST(CounterStoreTest, ApproximateKindsTrackZipfTrace) {
  auto trace = stream::Trace::GenerateBursty(50, 1.0, 32.0, 400000, 13).ValueOrDie();
  const auto truth = trace.ExactCounts();
  for (CounterKind kind :
       {CounterKind::kSampling, CounterKind::kMorris, CounterKind::kCsuros}) {
    auto store =
        analytics::CounterStore::MakeWithBitBudget(kind, 18, 1u << 20, 99)
            .ValueOrDie();
    for (const auto& event : trace.events()) {
      ASSERT_TRUE(store.Increment(event.key, event.weight).ok());
    }
    EXPECT_EQ(store.num_keys(), truth.size());
    // Large keys should be tracked within loose relative error; tiny keys
    // within additive slack (counters are exact in the deterministic
    // prefix).
    for (const auto& [key, count] : truth) {
      const double est = store.Estimate(key).ValueOrDie();
      if (count >= 2000) {
        EXPECT_LE(stats::RelativeError(est, static_cast<double>(count)), 0.4)
            << CounterKindToString(kind) << " key=" << key << " n=" << count;
      }
    }
  }
}

TEST(CounterStoreTest, PackingIsDenserThanMachineWords) {
  auto store = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kSampling, 17, 999999, 5)
                   .ValueOrDie();
  for (uint64_t key = 0; key < 1000; ++key) {
    ASSERT_TRUE(store.Increment(key, 1 + key).ok());
  }
  EXPECT_EQ(store.TotalStateBits(), 17000u);  // vs 64000 for uint64 counters
  EXPECT_EQ(store.AlgorithmName().find("sampling"), 0u);
  // The index is measured: 1000 keys under 3/4 load need 2048 entries of
  // 12 bytes.
  EXPECT_DOUBLE_EQ(store.IndexBitsPerKey(), 2048.0 * 12 * 8 / 1000);
  auto empty = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kSampling, 17, 999999, 5)
                   .ValueOrDie();
  EXPECT_EQ(empty.IndexBitsPerKey(), 0.0);
}

TEST(CounterStoreTest, StateSurvivesInterleavedAccess) {
  // Interleave two keys heavily; per-key streams must remain coherent
  // (deserialization/serialization must not leak state across slots).
  auto exact = analytics::CounterStore::MakeWithBitBudget(
                   CounterKind::kExact, 24, (1u << 24) - 1, 1)
                   .ValueOrDie();
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(exact.Increment(0, 3).ok());
    ASSERT_TRUE(exact.Increment(1, 5).ok());
  }
  EXPECT_DOUBLE_EQ(exact.Estimate(0).ValueOrDie(), 3000.0);
  EXPECT_DOUBLE_EQ(exact.Estimate(1).ValueOrDie(), 5000.0);
}

TEST(ShardedStoreTest, MergedMatchesSingleStoreStatistically) {
  // Means across repetitions: one key's stream split over three lanes and
  // merged on read vs the whole stream through a single lane.
  const uint64_t n = 60000;
  double merged_sum = 0, direct_sum = 0;
  const int reps = 60;
  const auto make = [](uint64_t shards, uint64_t seed) {
    return analytics::ShardedCounterStore::Make(shards, CounterKind::kSampling,
                                                18, 1u << 20, seed)
        .ValueOrDie();
  };
  for (int rep = 0; rep < reps; ++rep) {
    auto sharded = make(3, 100 + rep);
    const analytics::KeyWeight thirds[] = {
        {1, n / 3}, {1, n / 3}, {1, n - 2 * (n / 3)}};
    for (uint64_t lane = 0; lane < 3; ++lane) {
      ASSERT_TRUE(sharded->IncrementBatch(lane, &thirds[lane], 1).ok());
    }
    merged_sum += sharded->Estimate(1).ValueOrDie();

    auto single = make(1, 500 + rep);
    const analytics::KeyWeight whole{1, n};
    ASSERT_TRUE(single->IncrementBatch(0, &whole, 1).ok());
    direct_sum += single->Estimate(1).ValueOrDie();
  }
  EXPECT_NEAR(merged_sum / reps, direct_sum / reps, 0.05 * n);
}

}  // namespace
}  // namespace countlib
