// Concurrency tests for the sharded store's freeze protocol and for the
// pipeline's cross-shard cut guarantee — the TSAN lane runs this suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "pipeline/ingest_pipeline.h"

namespace countlib {
namespace {

using analytics::KeyWeight;
using analytics::ShardedCounterStore;

// Every snapshot taken during concurrent batched ingest must reflect a
// whole number of applied batches per lane: batches are the atomic unit of
// the frozen cut. Lane w writes only key w in fixed-size batches, so each
// key's estimate in any snapshot must be a multiple of the batch size, and
// monotone across snapshots.
TEST(ShardedConcurrentTest, FrozenCutIsBatchAtomic) {
  constexpr uint64_t kLanes = 4;
  constexpr uint64_t kBatch = 64;
  constexpr uint64_t kBatchesPerLane = 300;
  auto store = ShardedCounterStore::Make(kLanes, CounterKind::kExact, 32,
                                         (1ull << 32) - 1, 1)
                   .ValueOrDie();

  std::vector<std::thread> writers;
  for (uint64_t lane = 0; lane < kLanes; ++lane) {
    writers.emplace_back([&store, lane] {
      std::vector<KeyWeight> batch(kBatch, KeyWeight{lane, 1});
      for (uint64_t b = 0; b < kBatchesPerLane; ++b) {
        ASSERT_TRUE(
            store->IncrementBatch(lane, batch.data(), batch.size()).ok());
      }
    });
  }

  // Two readers: one taking whole merged snapshots, one doing per-key
  // Estimates — both freeze, and they contend for the token.
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    std::unordered_map<uint64_t, double> last;
    while (!done.load(std::memory_order_acquire)) {
      auto cut = store->Snapshot().ValueOrDie();
      for (uint64_t key = 0; key < kLanes; ++key) {
        auto est = cut.Estimate(key);
        if (est.status().IsNotFound()) continue;
        const double v = est.ValueOrDie();
        const auto n = static_cast<uint64_t>(v);
        EXPECT_DOUBLE_EQ(v, static_cast<double>(n));
        EXPECT_EQ(n % kBatch, 0u) << "partial batch visible for key " << key;
        EXPECT_GE(v, last[key]) << "snapshot went backwards for key " << key;
        last[key] = v;
      }
    }
  });
  std::thread estimator([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (uint64_t key = 0; key < kLanes; ++key) {
        auto est = store->Estimate(key);
        if (est.status().IsNotFound()) continue;
        const auto n = static_cast<uint64_t>(est.ValueOrDie());
        EXPECT_EQ(n % kBatch, 0u);
      }
    }
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();
  estimator.join();

  // Quiesced: every lane's batches are all visible, exactly once.
  for (uint64_t key = 0; key < kLanes; ++key) {
    EXPECT_DOUBLE_EQ(store->Estimate(key).ValueOrDie(),
                     static_cast<double>(kBatch * kBatchesPerLane));
  }
  const analytics::StoreStats stats = store->Stats();
  EXPECT_EQ(stats.batch_calls, kLanes * kBatchesPerLane);
  EXPECT_EQ(stats.batch_updates, kLanes * kBatchesPerLane * kBatch);
}

// The cross-shard cut, end to end: heavy pipeline ingest into a sharded
// store while SetWorkerCount pauses and resumes the pool — each resume
// hands every lane to a new worker thread — and a reader snapshots
// concurrently. Books must be exact: after Drain, the merged view equals
// the quiesced ground truth — no event lost or double-counted across
// pause/resume barriers or freezes.
TEST(ShardedConcurrentTest, PipelineCutUnderWorkerChurnIsExact) {
  constexpr uint64_t kProducers = 4;
  constexpr uint64_t kKeys = 97;
  constexpr uint64_t kEventsPerProducer = 30000;
  auto store = ShardedCounterStore::Make(4, CounterKind::kExact, 32,
                                         (1ull << 32) - 1, 3)
                   .ValueOrDie();

  pipeline::PipelineOptions opt;
  opt.num_producers = kProducers;
  opt.num_workers = 4;
  opt.queue_capacity = 1024;
  opt.max_batch = 256;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();

  // Ground truth: producer p submits weight (e % 7 + 1) to key (e % kKeys);
  // a blocking Submit parks on a full ring, so every event is applied.
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pipe] {
      auto slot = pipe->AcquireProducerSlot().ValueOrDie();
      for (uint64_t e = 0; e < kEventsPerProducer; ++e) {
        ASSERT_TRUE(slot.Submit(e % kKeys, e % 7 + 1).ok());
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(pipe->SetWorkerCount(0).ok());
      ASSERT_TRUE(pipe->SetWorkerCount(4).ok());
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Concurrent frozen reads must always succeed (VerifyStable passing
      // is part of Snapshot's OK) and never exceed the submitted totals.
      auto top = store->TopK(5).ValueOrDie();
      for (const auto& ke : top) {
        EXPECT_LE(ke.estimate,
                  static_cast<double>(kProducers * kEventsPerProducer * 7));
      }
    }
  });

  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  churn.join();
  reader.join();
  ASSERT_TRUE(pipe->Drain().ok());

  const pipeline::PipelineStats pstats = pipe->Stats();
  EXPECT_EQ(pstats.events_submitted, kProducers * kEventsPerProducer);
  EXPECT_EQ(pstats.events_applied, kProducers * kEventsPerProducer);
  EXPECT_EQ(pstats.events_dropped, 0u);

  // Quiesced ground truth, computed independently.
  std::unordered_map<uint64_t, uint64_t> truth;
  for (uint64_t e = 0; e < kEventsPerProducer; ++e) {
    truth[e % kKeys] += (e % 7 + 1) * kProducers;
  }
  EXPECT_EQ(store->NumKeys(), truth.size());
  for (const auto& [key, weight] : truth) {
    EXPECT_DOUBLE_EQ(store->Estimate(key).ValueOrDie(),
                     static_cast<double>(weight))
        << "key " << key;
  }
}

// Writers parked by a long freeze must resume losslessly, and competing
// freeze acquirers must serialize — stress the token with many readers.
TEST(ShardedConcurrentTest, ManyReadersSerializeOnFreezeToken) {
  constexpr uint64_t kLanes = 2;
  constexpr uint64_t kReaders = 6;
  auto store = ShardedCounterStore::Make(kLanes, CounterKind::kExact, 32,
                                         (1ull << 32) - 1, 5)
                   .ValueOrDie();
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  std::vector<uint64_t> written(kLanes, 0);
  for (uint64_t lane = 0; lane < kLanes; ++lane) {
    writers.emplace_back([&, lane] {
      std::vector<KeyWeight> batch(16, KeyWeight{lane, 1});
      while (!done.load(std::memory_order_acquire)) {
        ASSERT_TRUE(
            store->IncrementBatch(lane, batch.data(), batch.size()).ok());
        written[lane] += batch.size();
      }
    });
  }
  std::vector<std::thread> readers;
  for (uint64_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto cut = store->Snapshot().ValueOrDie();
        EXPECT_LE(cut.num_keys(), kLanes);
      }
    });
  }
  for (auto& t : readers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();
  for (uint64_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_DOUBLE_EQ(store->Estimate(lane).ValueOrDie(),
                     static_cast<double>(written[lane]));
  }
}

}  // namespace
}  // namespace countlib
