// Tests for the stores' batch APIs and snapshot accessors used by the
// ingestion pipeline: CounterStore::IncrementBatch / ForEach (each kind's
// apply loop, the law of its weight-1 updates, and the slot codec and file
// layout under them) and the
// concurrent store's (ShardedCounterStore) lane-addressed IncrementBatch /
// ForEach / TopK.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/counter_store.h"
#include "analytics/sharded_counter_store.h"
#include "core/params.h"
#include "random/rng.h"
#include "sim/morris_exact_dist.h"
#include "sim/sampling_exact_dist.h"
#include "stats/hypothesis.h"

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

// One IncrementBatch and one Increment per update must draw the same coins
// in the same order, for exact and approximate kinds alike, including
// while the index grows mid-batch (2^14+ distinct keys from an initial 16
// entries).
TEST(CounterStoreBatchTest, BatchMatchesSequentialIncrements) {
  struct Config {
    CounterKind kind;
    int bits;
    uint64_t n_max;
  };
  // Csuros-8 at n_max 2^20 has a 3-bit mantissa, so its keys leave the
  // deterministic e = 0 regime and draw coins.
  const Config configs[] = {{CounterKind::kExact, 32, uint64_t{1} << 24},
                            {CounterKind::kMorris, 16, uint64_t{1} << 24},
                            {CounterKind::kSampling, 18, uint64_t{1} << 24},
                            {CounterKind::kCsuros, 8, uint64_t{1} << 20}};
  constexpr uint64_t kKeys = (uint64_t{1} << 14) + 1000;
  std::vector<KeyWeight> updates;
  for (uint64_t i = 0; i < 3 * kKeys; ++i) {
    // Scattered keys, repeated in a different order each pass.
    const uint64_t rank = (i * 7919) % kKeys;
    updates.push_back(KeyWeight{rank * 0x9E3779B97F4A7C15ull, (i % 11) + 1});
  }
  for (const Config& config : configs) {
    SCOPED_TRACE(CounterKindToString(config.kind));
    auto batched = CounterStore::MakeWithBitBudget(config.kind, config.bits,
                                                   config.n_max, 9)
                       .ValueOrDie();
    auto sequential = CounterStore::MakeWithBitBudget(config.kind, config.bits,
                                                      config.n_max, 9)
                          .ValueOrDie();
    ASSERT_TRUE(batched.IncrementBatch(updates.data(), updates.size()).ok());
    for (const KeyWeight& u : updates) {
      ASSERT_TRUE(sequential.Increment(u.key, u.weight).ok());
    }
    ASSERT_EQ(batched.num_keys(), kKeys);
    ASSERT_EQ(sequential.num_keys(), kKeys);
    for (uint64_t rank = 0; rank < kKeys; ++rank) {
      const uint64_t key = rank * 0x9E3779B97F4A7C15ull;
      ASSERT_EQ(batched.Estimate(key).ValueOrDie(),
                sequential.Estimate(key).ValueOrDie())
          << "key rank " << rank;
    }
  }
}

// The packed state of `key` after `n` weight-1 updates of it, applied as
// one IncrementBatch: the store path of a pipeline batch in which nothing
// folds.
uint64_t StateAfterWeightOneUpdates(CounterKind kind, int bits, uint64_t n_max,
                                    uint64_t seed,
                                    const std::vector<KeyWeight>& updates) {
  auto store =
      CounterStore::MakeWithBitBudget(kind, bits, n_max, seed).ValueOrDie();
  EXPECT_TRUE(store.IncrementBatch(updates.data(), updates.size()).ok());
  auto probe = MakeCounterForBits(kind, bits, n_max, 0).ValueOrDie();
  EXPECT_TRUE(store.ReadKeyState(updates[0].key, probe.get()).ValueOrDie());
  return probe->PackState();
}

// The store's weight-1 Morris update (one Bernoulli draw per update, not a
// geometric wait) has the exact law of X after n increments. Morris-6 at
// n_max 2^10 has a = 0.246, so 300 updates spread X over ~20 levels.
TEST(CounterStoreBatchTest, WeightOneMorrisUpdatesMatchExactLaw) {
  constexpr int kBits = 6;
  constexpr uint64_t kNMax = 1024;
  constexpr uint64_t kN = 300;
  constexpr int kTrials = 20000;
  const MorrisParams params = MorrisForStateBits(kBits, kNMax).ValueOrDie();
  auto dp = sim::MorrisExactDistribution::Make(params.a, params.x_cap)
                .ValueOrDie();
  dp.Step(kN);
  const std::vector<KeyWeight> updates(kN, KeyWeight{42, 1});
  std::vector<double> observed(params.x_cap + 1, 0.0);
  Rng seeder(2024);
  for (int tr = 0; tr < kTrials; ++tr) {
    observed[StateAfterWeightOneUpdates(CounterKind::kMorris, kBits, kNMax,
                                        seeder.NextU64(), updates)] += 1;
  }
  std::vector<double> expected(observed.size());
  for (uint64_t x = 0; x < expected.size(); ++x) {
    expected[x] = dp.Pmf(x) * kTrials;
  }
  auto result = stats::ChiSquareGoodnessOfFit(observed, expected).ValueOrDie();
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic
                                  << " dof=" << result.dof;
}

// The same for the sampling counter: sampling-8 at n_max 256 has budget 32
// and t_cap 7, so 500 updates take t to ~4 and every weight-1 update past
// the first fold is one Bernoulli(2^-t) draw.
TEST(CounterStoreBatchTest, WeightOneSamplingUpdatesMatchExactLaw) {
  constexpr int kBits = 8;
  constexpr uint64_t kNMax = 256;
  constexpr uint64_t kN = 500;
  constexpr int kTrials = 20000;
  const SamplingCounterParams params =
      SamplingForStateBits(kBits, kNMax).ValueOrDie();
  ASSERT_EQ(params.budget, 32u);
  ASSERT_EQ(params.t_cap, 7u);
  auto dp = sim::SamplingExactDistribution::Make(params).ValueOrDie();
  dp.Step(kN);
  const std::vector<KeyWeight> updates(kN, KeyWeight{42, 1});
  // The packed word is y | t << 5, so it indexes (y, t) directly.
  std::vector<double> observed(params.budget * (params.t_cap + 1), 0.0);
  Rng seeder(2025);
  for (int tr = 0; tr < kTrials; ++tr) {
    observed[StateAfterWeightOneUpdates(CounterKind::kSampling, kBits, kNMax,
                                        seeder.NextU64(), updates)] += 1;
  }
  std::vector<double> expected(observed.size());
  double mass_past_first_fold = 0.0;
  for (uint32_t t = 0; t <= params.t_cap; ++t) {
    for (uint64_t y = 0; y < params.budget; ++y) {
      const double p = dp.Pmf(y, t);
      expected[t * params.budget + y] = p * kTrials;
      if (t > 0) mass_past_first_fold += p;
    }
  }
  ASSERT_GT(mass_past_first_fold, 0.999);
  auto result = stats::ChiSquareGoodnessOfFit(observed, expected).ValueOrDie();
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic
                                  << " dof=" << result.dof;
}

// Csuros has no exact-law simulator: its store weight-1 path is compared
// with a bare counter's geometric fast-forward over the same n. Csuros-9 at
// n_max 2^10 has a 4-bit mantissa, so 500 updates leave the deterministic
// e = 0 regime after 16 and end near e = 5.
TEST(CounterStoreBatchTest, WeightOneCsurosUpdatesMatchFastForward) {
  constexpr int kBits = 9;
  constexpr uint64_t kNMax = 1024;
  constexpr uint64_t kN = 500;
  constexpr int kTrials = 20000;
  const std::vector<KeyWeight> updates(kN, KeyWeight{42, 1});
  std::vector<uint64_t> by_store(uint64_t{1} << kBits, 0);
  std::vector<uint64_t> by_fast_forward(by_store.size(), 0);
  Rng seeder(2026);
  for (int tr = 0; tr < kTrials; ++tr) {
    ++by_store[StateAfterWeightOneUpdates(CounterKind::kCsuros, kBits, kNMax,
                                          seeder.NextU64(), updates)];
    auto bare = MakeCounterForBits(CounterKind::kCsuros, kBits, kNMax,
                                   seeder.NextU64())
                    .ValueOrDie();
    bare->IncrementMany(kN);
    ++by_fast_forward[bare->PackState()];
  }
  auto result =
      stats::ChiSquareTwoSample(by_store, by_fast_forward).ValueOrDie();
  EXPECT_GT(result.p_value, 1e-4) << "chi2=" << result.statistic
                                  << " dof=" << result.dof;
}

// The slot codec at every stride the store takes: slots straddle byte and
// 64-bit word edges, and neighbours must never bleed into each other.
// Counts are read back as integers through ReadKeyState (a double cannot
// hold every 62-bit count), before and after a file round trip.
TEST(CounterStoreBatchTest, EveryStrideKeepsExactCountsAndRoundTrips) {
  constexpr uint64_t kKeys = 131;
  const std::string path =
      ::testing::TempDir() + "countlib_stride_sweep.store";
  for (int bits = 1; bits <= 62; ++bits) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    const uint64_t cap = (uint64_t{1} << bits) - 1;
    auto store = CounterStore::MakeWithBitBudget(CounterKind::kExact, bits,
                                                 cap, 1)
                     .ValueOrDie();
    ASSERT_EQ(store.bits_per_key(), bits);
    // Per-key targets spread over [0, cap], applied in three interleaved
    // passes over all keys.
    std::vector<uint64_t> target(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
      target[k] = ((k + 1) * 0x9E3779B97F4A7C15ull) & cap;
    }
    for (int pass = 0; pass < 3; ++pass) {
      for (uint64_t k = 0; k < kKeys; ++k) {
        const uint64_t third = target[k] / 3;
        const uint64_t w = pass < 2 ? third : target[k] - 2 * third;
        ASSERT_TRUE(store.Increment(k, w).ok());
      }
    }
    auto check = [&](const CounterStore& s) {
      auto probe = MakeCounterForBits(CounterKind::kExact, bits, cap, 1)
                       .ValueOrDie();
      for (uint64_t k = 0; k < kKeys; ++k) {
        ASSERT_TRUE(s.ReadKeyState(k, probe.get()).ValueOrDie());
        EXPECT_EQ(probe->PackState(), target[k]) << "key " << k;
      }
    };
    check(store);
    ASSERT_TRUE(store.SaveToFile(path).ok());
    auto loaded = CounterStore::MakeWithBitBudget(CounterKind::kExact, bits,
                                                  cap, 2)
                      .ValueOrDie();
    ASSERT_TRUE(loaded.LoadFromFile(path).ok());
    EXPECT_EQ(loaded.num_keys(), kKeys);
    check(loaded);
  }
  std::remove(path.c_str());
}

// A snapshot written by hand from the documented layout (counter_store.h,
// SaveToFile) loads: the format is the contract, not the writer.
TEST(CounterStoreBatchTest, HandBuiltSnapshotLoads) {
  constexpr int kBits = 12;
  const uint64_t counts[3] = {5, 4095, 1234};  // slot 0, 1, 2
  // (key, slot) pairs in no particular order.
  const uint64_t pairs[3][2] = {{100, 2}, {7, 0}, {55, 1}};
  std::vector<uint8_t> bytes;
  auto put_u64 = [&bytes](uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
  };
  for (char c : std::string("clstore1")) bytes.push_back(static_cast<uint8_t>(c));
  put_u64(kBits);
  put_u64(3);  // slots
  put_u64(3);  // keys
  for (const auto& pair : pairs) {
    put_u64(pair[0]);
    put_u64(pair[1]);
  }
  const uint64_t pool_bytes = (3 * kBits + 7) / 8;
  put_u64(pool_bytes);
  std::vector<uint8_t> pool(pool_bytes, 0);
  for (uint64_t slot = 0; slot < 3; ++slot) {
    for (int b = 0; b < kBits; ++b) {
      const uint64_t bit = slot * kBits + b;
      if ((counts[slot] >> b) & 1) pool[bit / 8] |= uint8_t(1u << (bit % 8));
    }
  }
  bytes.insert(bytes.end(), pool.begin(), pool.end());
  const std::string path = ::testing::TempDir() + "countlib_hand_built.store";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);

  auto store = CounterStore::MakeWithBitBudget(CounterKind::kExact, kBits,
                                               4095, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.LoadFromFile(path).ok());
  EXPECT_EQ(store.num_keys(), 3u);
  EXPECT_EQ(store.Estimate(7).ValueOrDie(), 5.0);
  EXPECT_EQ(store.Estimate(55).ValueOrDie(), 4095.0);
  EXPECT_EQ(store.Estimate(100).ValueOrDie(), 1234.0);
  EXPECT_TRUE(store.Estimate(8).status().IsNotFound());

  // And the writer reproduces those bytes, up to the order of the pairs.
  ASSERT_TRUE(store.SaveToFile(path).ok());
  f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> saved(bytes.size() + 1);
  EXPECT_EQ(std::fread(saved.data(), 1, saved.size(), f), bytes.size());
  std::fclose(f);
  saved.resize(bytes.size());
  const size_t pairs_begin = 32, pairs_end = 32 + 3 * 16;
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.begin() + pairs_begin,
                         saved.begin()));
  EXPECT_TRUE(std::equal(bytes.begin() + pairs_end, bytes.end(),
                         saved.begin() + pairs_end));
  std::remove(path.c_str());
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
