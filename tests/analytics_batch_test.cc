// Tests for the stores' batch APIs and snapshot accessors used by the
// ingestion pipeline: CounterStore::IncrementBatch / ForEach and the
// concurrent store's (ShardedCounterStore) lane-addressed IncrementBatch /
// ForEach / TopK.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/counter_store.h"
#include "analytics/sharded_counter_store.h"

namespace countlib {
namespace analytics {
namespace {

CounterStore MakeExactPlainStore() {
  return CounterStore::MakeWithBitBudget(CounterKind::kExact, 32,
                                         (uint64_t{1} << 32) - 1, 1)
      .ValueOrDie();
}

std::unique_ptr<ShardedCounterStore> MakeExactStore() {
  return ShardedCounterStore::Make(/*num_shards=*/8, CounterKind::kExact, 32,
                                   (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

// One update through lane `key % lanes`, as a single-event batch.
void Put(ShardedCounterStore* store, uint64_t key, uint64_t weight) {
  const KeyWeight kw{key, weight};
  ASSERT_TRUE(store->IncrementBatch(key % store->num_lanes(), &kw, 1).ok());
}

TEST(CounterStoreBatchTest, BatchMatchesSequentialIncrements) {
  auto batched = MakeExactPlainStore();
  auto sequential = MakeExactPlainStore();
  std::vector<KeyWeight> updates;
  for (uint64_t i = 0; i < 500; ++i) {
    updates.push_back(KeyWeight{i % 37, (i % 11) + 1});
  }
  ASSERT_TRUE(batched.IncrementBatch(updates.data(), updates.size()).ok());
  for (const KeyWeight& u : updates) {
    ASSERT_TRUE(sequential.Increment(u.key, u.weight).ok());
  }
  EXPECT_EQ(batched.num_keys(), sequential.num_keys());
  for (uint64_t key = 0; key < 37; ++key) {
    EXPECT_EQ(batched.Estimate(key).ValueOrDie(),
              sequential.Estimate(key).ValueOrDie());
  }
}

TEST(CounterStoreBatchTest, EmptyBatchIsANoOp) {
  auto store = MakeExactPlainStore();
  EXPECT_TRUE(store.IncrementBatch(nullptr, 0).ok());
  EXPECT_EQ(store.num_keys(), 0u);
}

TEST(CounterStoreBatchTest, ForEachVisitsEveryKeyOnce) {
  auto store = MakeExactPlainStore();
  for (uint64_t key = 0; key < 20; ++key) {
    ASSERT_TRUE(store.Increment(key, key + 1).ok());
  }
  std::map<uint64_t, double> seen;
  ASSERT_TRUE(store
                  .ForEach([&seen](uint64_t key, double est) {
                    EXPECT_TRUE(seen.emplace(key, est).second);
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 20u);
  for (const auto& [key, est] : seen) {
    EXPECT_EQ(est, static_cast<double>(key + 1));
  }
}

TEST(ConcurrentStoreBatchTest, BatchSpanningLanesMatchesTruth) {
  // The same key set is written through every lane; the merged read must
  // sum each key's per-lane totals exactly.
  auto store = MakeExactStore();
  std::vector<std::vector<KeyWeight>> per_lane(store->num_lanes());
  std::map<uint64_t, uint64_t> truth;
  for (uint64_t i = 0; i < 2000; ++i) {
    const KeyWeight u{i % 101, (i % 7) + 1};
    per_lane[i % per_lane.size()].push_back(u);
    truth[u.key] += u.weight;
  }
  for (uint64_t lane = 0; lane < per_lane.size(); ++lane) {
    ASSERT_TRUE(store
                    ->IncrementBatch(lane, per_lane[lane].data(),
                                     per_lane[lane].size())
                    .ok());
  }
  EXPECT_EQ(store->NumKeys(), truth.size());
  for (const auto& [key, total] : truth) {
    EXPECT_EQ(store->Estimate(key).ValueOrDie(), static_cast<double>(total));
  }
}

TEST(ConcurrentStoreBatchTest, ConcurrentBatchesAreExact) {
  auto store = MakeExactStore();
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kBatches = 50;
  constexpr uint64_t kKeys = 64;
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    // One lane per writer thread.
    threads.emplace_back([&store, t] {
      std::vector<KeyWeight> batch;
      for (uint64_t b = 0; b < kBatches; ++b) {
        batch.clear();
        for (uint64_t k = 0; k < kKeys; ++k) {
          batch.push_back(KeyWeight{k, t + 1});
        }
        ASSERT_TRUE(store->IncrementBatch(t, batch.data(), batch.size()).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each key got sum_t (t+1) = 10 per round, kBatches rounds.
  const double expected = 10.0 * kBatches;
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(store->Estimate(k).ValueOrDie(), expected);
  }
}

TEST(ConcurrentStoreSnapshotTest, ForEachCoversAllShards) {
  auto store = MakeExactStore();
  for (uint64_t key = 0; key < 100; ++key) Put(store.get(), key, key + 1);
  std::map<uint64_t, double> seen;
  ASSERT_TRUE(store
                  ->ForEach([&seen](uint64_t key, double est) {
                    EXPECT_TRUE(seen.emplace(key, est).second);
                  })
                  .ok());
  ASSERT_EQ(seen.size(), 100u);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(seen[key], static_cast<double>(key + 1));
  }
}

TEST(ConcurrentStoreSnapshotTest, TopKReturnsLargestDescending) {
  auto store = MakeExactStore();
  for (uint64_t key = 0; key < 50; ++key) Put(store.get(), key, (key + 1) * 10);
  auto top = store->TopK(5).ValueOrDie();
  ASSERT_EQ(top.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(top[i].key, 49 - i);
    EXPECT_EQ(top[i].estimate, static_cast<double>((50 - i) * 10));
  }

  // k larger than the key count returns everything, still sorted.
  auto all = store->TopK(1000).ValueOrDie();
  ASSERT_EQ(all.size(), 50u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].estimate, all[i].estimate);
  }

  // Ties break by ascending key.
  auto tied = MakeExactStore();
  for (uint64_t key : {9u, 3u, 7u}) Put(tied.get(), key, 5);
  auto tied_top = tied->TopK(3).ValueOrDie();
  ASSERT_EQ(tied_top.size(), 3u);
  EXPECT_EQ(tied_top[0].key, 3u);
  EXPECT_EQ(tied_top[1].key, 7u);
  EXPECT_EQ(tied_top[2].key, 9u);
}

TEST(ConcurrentStoreSnapshotTest, TopKOnEmptyStoreIsEmpty) {
  auto store = MakeExactStore();
  EXPECT_TRUE(store->TopK(10).ValueOrDie().empty());
}

}  // namespace
}  // namespace analytics
}  // namespace countlib
