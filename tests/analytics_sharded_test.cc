// Tests for the merge-on-read sharded store and the CounterStore merge
// primitives under it (ReadKeyState / MergeFrom / Counter::MergeFrom).
// ConcurrentStoreTest drives the store from several writer threads, one
// lane per thread.

#include "analytics/sharded_counter_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/counter_factory.h"
#include "net/server.h"
#include "pipeline/ingest_pipeline.h"
#include "stats/error_metrics.h"

namespace countlib {
namespace {

using analytics::CounterStore;
using analytics::KeyEstimate;
using analytics::KeyWeight;
using analytics::ShardedCounterStore;

std::vector<KeyWeight> MakeBatch(std::vector<KeyWeight> kw) { return kw; }

// --- CounterStore merge primitives ----------------------------------

TEST(ShardedStoreTest, CounterStoreReadKeyStateDecodesAndReportsAbsence) {
  auto store = CounterStore::MakeWithBitBudget(CounterKind::kExact, 24,
                                               (1u << 24) - 1, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.Increment(7, 41).ok());
  auto scratch =
      MakeCounterForBits(CounterKind::kExact, 24, (1u << 24) - 1, 2)
          .ValueOrDie();
  ASSERT_TRUE(store.ReadKeyState(7, scratch.get()).ValueOrDie());
  EXPECT_DOUBLE_EQ(scratch->Estimate(), 41.0);
  EXPECT_FALSE(store.ReadKeyState(8, scratch.get()).ValueOrDie());

  // A counter of the wrong width is rejected, not misdecoded.
  auto narrow =
      MakeCounterForBits(CounterKind::kExact, 16, (1u << 16) - 1, 2)
          .ValueOrDie();
  EXPECT_TRUE(store.ReadKeyState(7, narrow.get())
                  .status()
                  .IsFailedPrecondition());
}

TEST(ShardedStoreTest, CounterStoreMergeFromCombinesFreshAndSharedKeys) {
  auto a = CounterStore::MakeWithBitBudget(CounterKind::kExact, 24,
                                           (1u << 24) - 1, 1)
               .ValueOrDie();
  auto b = CounterStore::MakeWithBitBudget(CounterKind::kExact, 24,
                                           (1u << 24) - 1, 2)
               .ValueOrDie();
  ASSERT_TRUE(a.Increment(1, 10).ok());
  ASSERT_TRUE(a.Increment(2, 20).ok());
  ASSERT_TRUE(b.Increment(2, 5).ok());   // shared key: typed merge
  ASSERT_TRUE(b.Increment(3, 30).ok());  // fresh key: raw bit copy
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_EQ(a.num_keys(), 3u);
  EXPECT_DOUBLE_EQ(a.Estimate(1).ValueOrDie(), 10.0);
  EXPECT_DOUBLE_EQ(a.Estimate(2).ValueOrDie(), 25.0);
  EXPECT_DOUBLE_EQ(a.Estimate(3).ValueOrDie(), 30.0);
  // The donor is untouched.
  EXPECT_EQ(b.num_keys(), 2u);
  EXPECT_DOUBLE_EQ(b.Estimate(2).ValueOrDie(), 5.0);

  EXPECT_TRUE(a.MergeFrom(a).IsInvalidArgument());
  auto narrow = CounterStore::MakeWithBitBudget(CounterKind::kExact, 16,
                                                (1u << 16) - 1, 3)
                    .ValueOrDie();
  EXPECT_TRUE(a.MergeFrom(narrow).IsFailedPrecondition());
}

TEST(ShardedStoreTest, CounterMergeFromRejectsMismatchedTypes) {
  auto exact =
      MakeCounterForBits(CounterKind::kExact, 24, (1u << 24) - 1, 1)
          .ValueOrDie();
  auto morris =
      MakeCounterForBits(CounterKind::kMorris, 8, (1u << 24) - 1, 1)
          .ValueOrDie();
  EXPECT_TRUE(exact->MergeFrom(*morris).IsInvalidArgument());
  EXPECT_TRUE(morris->MergeFrom(*exact).IsInvalidArgument());
}

// A store merge decodes every key into one scratch counter, and the donor
// side is const, so its RNG never advances. Each key's merge must still
// draw fresh coins: if a merge whose donor state is the higher one took
// the donor's RNG along with its state, every such key would replay the
// same coins, and all keys sharing a (dest state, donor state) pair would
// merge to one outcome.
void ExpectFreshMergeCoinsPerKey(CounterKind kind, int state_bits) {
  constexpr uint64_t kKeys = 4096;
  constexpr uint64_t kNMax = uint64_t{1} << 20;
  auto dest = CounterStore::MakeWithBitBudget(kind, state_bits, kNMax, 1)
                  .ValueOrDie();
  auto donor = CounterStore::MakeWithBitBudget(kind, state_bits, kNMax, 2)
                   .ValueOrDie();
  std::vector<std::pair<double, double>> before(kKeys);
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_TRUE(dest.Increment(key, 40).ok());
    ASSERT_TRUE(donor.Increment(key, 5000).ok());
    before[key] = {dest.Estimate(key).ValueOrDie(),
                   donor.Estimate(key).ValueOrDie()};
  }
  ASSERT_TRUE(dest.MergeFrom(donor).ok());

  std::map<std::pair<double, double>, std::multiset<double>> outcomes;
  for (uint64_t key = 0; key < kKeys; ++key) {
    outcomes[before[key]].insert(dest.Estimate(key).ValueOrDie());
  }
  int groups = 0;
  int single_outcome = 0;
  for (const auto& [pair, merged] : outcomes) {
    if (merged.size() < 20) continue;
    ++groups;
    if (*merged.begin() == *merged.rbegin()) ++single_outcome;
  }
  ASSERT_GT(groups, 0) << CounterKindToString(kind);
  EXPECT_LE(single_outcome, groups / 10)
      << CounterKindToString(kind) << ": " << single_outcome << " of "
      << groups << " state pairs merged to a single outcome";
}

TEST(ShardedStoreTest, CounterStoreMergeDrawsFreshCoinsPerKey) {
  ExpectFreshMergeCoinsPerKey(CounterKind::kMorris, 16);
  ExpectFreshMergeCoinsPerKey(CounterKind::kSampling, 12);
}

// --- Construction gates ----------------------------------------------

TEST(ShardedStoreTest, MakeValidatesShardCountAndMergeability) {
  EXPECT_TRUE(ShardedCounterStore::Make(0, CounterKind::kExact, 24,
                                        (1u << 24) - 1, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ShardedCounterStore::Make(5000, CounterKind::kExact, 24,
                                        (1u << 24) - 1, 1)
                  .status()
                  .IsInvalidArgument());
  // kCsuros is bit-budget-constructible but has no MergeFrom: merge-on-read
  // cannot work, so construction (not the first snapshot) must fail.
  EXPECT_TRUE(ShardedCounterStore::Make(4, CounterKind::kCsuros, 16,
                                        (1u << 24) - 1, 1)
                  .status()
                  .IsInvalidArgument());
  // Mergeable kinds construct.
  EXPECT_TRUE(ShardedCounterStore::Make(4, CounterKind::kSampling, 18,
                                        (1u << 20) - 1, 1)
                  .ok());
  EXPECT_TRUE(ShardedCounterStore::Make(4, CounterKind::kMorris, 8,
                                        (1u << 20) - 1, 1)
                  .ok());
}

TEST(ShardedStoreTest, LaneContractEnforced) {
  auto store = ShardedCounterStore::Make(4, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  EXPECT_EQ(store->num_lanes(), 4u);
  const auto batch = MakeBatch({{1, 1}});
  EXPECT_TRUE(store->IncrementBatch(4, batch.data(), batch.size())
                  .IsInvalidArgument());
  EXPECT_TRUE(store->IncrementBatch(3, batch.data(), batch.size()).ok());
  // n == 0 is a no-op on any lane in range.
  EXPECT_TRUE(store->IncrementBatch(0, nullptr, 0).ok());
}

// --- Merge-on-read semantics -----------------------------------------

TEST(ShardedStoreTest, ExactKindMergesToExactTotalsAcrossShards) {
  auto store = ShardedCounterStore::Make(3, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 7)
                   .ValueOrDie();
  // Key 100 is written through every lane; keys 0..2 through one each.
  for (uint64_t lane = 0; lane < 3; ++lane) {
    const auto batch =
        MakeBatch({{100, 10 * (lane + 1)}, {lane, lane + 1}});
    ASSERT_TRUE(store->IncrementBatch(lane, batch.data(), batch.size()).ok());
  }
  EXPECT_DOUBLE_EQ(store->Estimate(100).ValueOrDie(), 60.0);
  EXPECT_DOUBLE_EQ(store->Estimate(0).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(store->Estimate(1).ValueOrDie(), 2.0);
  EXPECT_DOUBLE_EQ(store->Estimate(2).ValueOrDie(), 3.0);
  EXPECT_TRUE(store->Estimate(999).status().IsNotFound());
  // Distinct keys: 100, 0, 1, 2 — key 100 lives in all three shards but
  // counts once in the merged view.
  EXPECT_EQ(store->NumKeys(), 4u);

  // ForEach iterates the same merged view.
  uint64_t seen = 0;
  double total = 0;
  ASSERT_TRUE(store
                  ->ForEach([&](uint64_t key, double est) {
                    ++seen;
                    total += est;
                    (void)key;
                  })
                  .ok());
  EXPECT_EQ(seen, 4u);
  EXPECT_DOUBLE_EQ(total, 66.0);

  // A frozen snapshot is a plain CounterStore with the same content.
  auto cut = store->Snapshot().ValueOrDie();
  EXPECT_EQ(cut.num_keys(), 4u);
  EXPECT_DOUBLE_EQ(cut.Estimate(100).ValueOrDie(), 60.0);
}

TEST(ShardedStoreTest, SamplingKindMergedEstimatesStayAccurate) {
  // Statistical sanity: a mergeable approximate kind read through the
  // merge path lands near the true totals (generous bound; the estimator's
  // own accuracy is covered by the core tests).
  auto store = ShardedCounterStore::Make(4, CounterKind::kSampling, 18,
                                         (1u << 22) - 1, 42)
                   .ValueOrDie();
  constexpr uint64_t kPerLane = 50000;
  for (uint64_t lane = 0; lane < 4; ++lane) {
    const auto batch = MakeBatch({{77, kPerLane}});
    ASSERT_TRUE(store->IncrementBatch(lane, batch.data(), batch.size()).ok());
  }
  const double est = store->Estimate(77).ValueOrDie();
  const double truth = 4.0 * kPerLane;
  EXPECT_LT(std::abs(est - truth) / truth, 0.5);
}

TEST(ShardedStoreTest, TopKTieOrderMatchesHandComputedOrder) {
  // The pinned CounterReader contract: descending by estimate, ties broken
  // by key ascending. Exact counters make the estimates deterministic, so
  // the order must match exactly.
  auto store = ShardedCounterStore::Make(4, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  // Lots of ties: weight = (key % 5) + 1.
  for (uint64_t key = 0; key < 40; ++key) {
    const auto batch = MakeBatch({{key, (key % 5) + 1}});
    ASSERT_TRUE(
        store->IncrementBatch(key % 4, batch.data(), batch.size()).ok());
  }
  // Weight 5 first (keys 4, 9, ..., 39), then weight 4 (keys 3, 8, ...),
  // and so on down to weight 1 (keys 0, 5, ...).
  std::vector<KeyEstimate> expected;
  for (uint64_t weight = 5; weight >= 1; --weight) {
    for (uint64_t key = weight - 1; key < 40; key += 5) {
      expected.push_back(KeyEstimate{key, static_cast<double>(weight)});
    }
  }
  for (size_t k : {5u, 13u, 40u, 100u}) {
    const auto top = store->TopK(k).ValueOrDie();
    ASSERT_EQ(top.size(), std::min<size_t>(k, expected.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].key, expected[i].key) << "rank " << i << " at k=" << k;
      EXPECT_DOUBLE_EQ(top[i].estimate, expected[i].estimate);
    }
  }
}

TEST(ShardedStoreTest, StatsCountBatchesUpdatesAndMergeReads) {
  auto store = ShardedCounterStore::Make(2, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  const auto batch = MakeBatch({{1, 1}, {2, 2}, {3, 3}});
  ASSERT_TRUE(store->IncrementBatch(0, batch.data(), batch.size()).ok());
  ASSERT_TRUE(store->IncrementBatch(1, batch.data(), 2).ok());
  ASSERT_TRUE(store->IncrementBatch(0, batch.data(), 0).ok());  // uncounted

  analytics::StoreStats stats = store->Stats();
  EXPECT_EQ(stats.batch_calls, 2u);
  EXPECT_EQ(stats.batch_updates, 5u);
  EXPECT_EQ(stats.merge_reads, 0u);

  (void)store->TopK(2).ValueOrDie();
  ASSERT_TRUE(store->ForEach([](uint64_t, double) {}).ok());
  stats = store->Stats();
  EXPECT_EQ(stats.merge_reads, 2u);
}

TEST(ShardedStoreTest, MetricsRegisterAndExportShardGauges) {
  auto store = ShardedCounterStore::Make(3, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  const auto batch = MakeBatch({{1, 1}, {2, 2}});
  ASSERT_TRUE(store->IncrementBatch(0, batch.data(), batch.size()).ok());
  ASSERT_TRUE(store->IncrementBatch(1, batch.data(), batch.size()).ok());
  (void)store->TopK(1).ValueOrDie();

  const obs::Snapshot snap = obs::GlobalSnapshot();
  EXPECT_EQ(snap.counters.at("countlib_store_batch_calls_total"), 2u);
  EXPECT_EQ(snap.counters.at("countlib_store_batch_updates_total"), 4u);
  EXPECT_EQ(snap.counters.at("countlib_store_merge_reads_total"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_store_shards"), 3.0);
  // Two shards hold two keys each (24 bits per slot).
  EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_store_shard_keys"), 4.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_store_state_bits"), 4.0 * 24.0);
  // One merge-latency sample per shard for the one merged read.
  EXPECT_EQ(
      snap.histograms.at("countlib_store_shard_merge_latency_ns").count, 3u);
  EXPECT_EQ(snap.histograms.at("countlib_store_freeze_wait_ns").count, 1u);

  // Default options serve with every layer's instruments exported: the
  // store's from its Make, the server's from EventServer::Make.
  {
    auto pipe =
        pipeline::IngestPipeline::Make(store.get(), pipeline::PipelineOptions())
            .ValueOrDie();
    auto server =
        net::EventServer::Make(pipe.get(), net::ServerOptions()).ValueOrDie();
    const obs::Snapshot serving = obs::GlobalSnapshot();
    EXPECT_EQ(serving.counters.count("countlib_net_connections_total"), 1u);
    EXPECT_EQ(serving.gauges.count("countlib_store_shards"), 1u);
  }
  // Destroying the store releases its names.
  store.reset();
  const obs::Snapshot after = obs::GlobalSnapshot();
  EXPECT_EQ(after.gauges.count("countlib_store_shards"), 0u);
  EXPECT_EQ(after.counters.count("countlib_store_batch_calls_total"), 0u);
  EXPECT_EQ(after.histograms.count("countlib_store_freeze_wait_ns"), 0u);
  EXPECT_EQ(after.counters.count("countlib_net_connections_total"), 0u);
}

// --- Concurrent writers, one lane per thread --------------------------

TEST(ConcurrentStoreTest, SingleThreadedSemanticsMatchPlainStore) {
  auto store = ShardedCounterStore::Make(8, CounterKind::kExact, 24,
                                         (1u << 24) - 1, 1)
                   .ValueOrDie();
  for (uint64_t key = 0; key < 100; ++key) {
    const KeyWeight kw{key, key + 1};
    ASSERT_TRUE(store->IncrementBatch(key % 8, &kw, 1).ok());
  }
  EXPECT_EQ(store->NumKeys(), 100u);
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_DOUBLE_EQ(store->Estimate(key).ValueOrDie(),
                     static_cast<double>(key + 1));
  }
  EXPECT_TRUE(store->Estimate(12345).status().IsNotFound());
}

TEST(ConcurrentStoreTest, ParallelIncrementsAreNotLost) {
  // Exact counters: every increment must be accounted for when every
  // writer thread hits every key through its own lane.
  constexpr uint64_t kThreads = 8;
  auto store = ShardedCounterStore::Make(kThreads, CounterKind::kExact, 30,
                                         (1u << 30) - 1, 1)
                   .ValueOrDie();
  constexpr uint64_t kKeys = 64;
  constexpr uint64_t kPerThreadPerKey = 500;
  std::vector<std::thread> pool;
  for (uint64_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, t] {
      for (uint64_t round = 0; round < kPerThreadPerKey; ++round) {
        for (uint64_t key = 0; key < kKeys; ++key) {
          const KeyWeight kw{key, 1};
          ASSERT_TRUE(store->IncrementBatch(t, &kw, 1).ok());
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  for (uint64_t key = 0; key < kKeys; ++key) {
    ASSERT_DOUBLE_EQ(store->Estimate(key).ValueOrDie(),
                     static_cast<double>(kThreads * kPerThreadPerKey))
        << "key " << key;
  }
}

TEST(ConcurrentStoreTest, ParallelApproximateCountingStaysAccurate) {
  constexpr uint64_t kThreads = 8;
  auto store = ShardedCounterStore::Make(kThreads, CounterKind::kSampling, 18,
                                         1u << 24, 99)
                   .ValueOrDie();
  constexpr uint64_t kKeys = 16;
  constexpr uint64_t kWeight = 4000;
  std::vector<std::thread> pool;
  for (uint64_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&store, t] {
      for (uint64_t key = 0; key < kKeys; ++key) {
        const KeyWeight kw{key, kWeight};
        ASSERT_TRUE(store->IncrementBatch(t, &kw, 1).ok());
      }
    });
  }
  for (auto& t : pool) t.join();
  const double truth = static_cast<double>(kThreads) * kWeight;
  for (uint64_t key = 0; key < kKeys; ++key) {
    const double est = store->Estimate(key).ValueOrDie();
    EXPECT_LE(stats::RelativeError(est, truth), 0.3) << "key " << key;
  }
  EXPECT_EQ(store->NumKeys(), kKeys);
  // Provisioned state: every key is resident in every writer's shard.
  EXPECT_EQ(store->TotalStateBits(), kThreads * kKeys * 18u);
}

}  // namespace
}  // namespace countlib
