// Tests for overload: a blocking submit into a full ring parks until a
// drain frees space, so no accepted event is lost, even when saturated
// producers park across worker-pool pauses; no park needs its backstop to
// find work; `TrySubmitBatch` enqueues the prefix that fits and never waits.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "pipeline/ingest_pipeline.h"

namespace countlib {
namespace pipeline {
namespace {

using std::chrono::milliseconds;

std::unique_ptr<analytics::ShardedCounterStore> MakeExactStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

// Saturated stress with worker churn: producers start against a
// paused pool, so every one of them fills its tiny ring and parks, and
// SetWorkerCount then resumes and pauses the pool while they keep parking
// and waking. Each resume must hand the parked producers to the new
// generation's drains. Zero loss, exact store totals.
TEST(OverloadPolicyTest, BlockStressWithPausesLosesNothing) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  opt.num_workers = 2;
  opt.queue_capacity = 32;   // tiny rings: producers park under load
  opt.max_batch = 64;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());

  constexpr uint64_t kKeys = 61;
  constexpr uint64_t kEventsPerProducer = 20000;
  std::vector<std::vector<uint64_t>> submitted(opt.num_producers,
                                               std::vector<uint64_t>(kKeys, 0));
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < opt.num_producers; ++p) {
    producers.emplace_back([&, p] {
      auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
      uint64_t x = p * 7919 + 1;
      for (uint64_t i = 0; i < kEventsPerProducer; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t key = (x >> 33) % kKeys;
        const uint64_t weight = ((x >> 20) % 4) + 1;
        ASSERT_TRUE(slot.Submit(key, weight).ok());
        submitted[p][key] += weight;
      }
    });
  }
  for (uint64_t n : {uint64_t{2}, uint64_t{0}, uint64_t{2}, uint64_t{0},
                     uint64_t{2}}) {
    std::this_thread::sleep_for(milliseconds(15));
    ASSERT_TRUE(pipeline->SetWorkerCount(n).ok());
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(pipeline->Drain().ok());

  const PipelineStats stats = pipeline->Stats();
  EXPECT_GT(stats.producer_parks, 0u);  // the paused start forces parks
  EXPECT_EQ(stats.events_submitted, opt.num_producers * kEventsPerProducer);
  EXPECT_EQ(stats.events_applied, stats.events_submitted);
  EXPECT_EQ(stats.queue_depth, 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t expected = 0;
    for (const auto& per : submitted) expected += per[k];
    if (expected == 0) continue;
    ASSERT_EQ(store->Estimate(k).ValueOrDie(), static_cast<double>(expected))
        << "key " << k;
  }
}

// Exact wakes under constant park/notify traffic: 2-event rings, four
// producers in blocking SubmitBatch with batches of up to 5 events, and
// two workers, for about a second. The producers pause now and then, so
// the workers run dry and park too. Every event lands exactly once, and
// no park ends on its backstop with work waiting: every push and every
// pop notifies.
TEST(OverloadPolicyTest, TinyRingsNeedNoBackstopRescues) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  opt.num_workers = 2;
  opt.queue_capacity = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  constexpr uint64_t kKeys = 37;
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(1000);
  std::vector<std::vector<uint64_t>> submitted(opt.num_producers,
                                               std::vector<uint64_t>(kKeys, 0));
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < opt.num_producers; ++p) {
    producers.emplace_back([&, p] {
      auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
      uint64_t x = p * 104729 + 1;
      const auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
      };
      analytics::KeyWeight batch[5];
      for (uint64_t round = 0; std::chrono::steady_clock::now() < deadline;
           ++round) {
        const size_t n = 1 + next() % 5;
        for (size_t i = 0; i < n; ++i) {
          batch[i] = {next() % kKeys, next() % 3 + 1};
        }
        ASSERT_TRUE(slot.SubmitBatch(batch, n).ok());
        for (size_t i = 0; i < n; ++i) {
          submitted[p][batch[i].key] += batch[i].weight;
        }
        if (round % 64 == 63) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(pipeline->Drain().ok());

  const PipelineStats stats = pipeline->Stats();
  EXPECT_GT(stats.producer_parks, 0u);
  EXPECT_GT(stats.worker_wakeups, 0u);
  EXPECT_EQ(stats.backstop_rescues, 0u);
  EXPECT_EQ(stats.events_applied, stats.events_submitted);
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t expected = 0;
    for (const auto& per : submitted) expected += per[k];
    ASSERT_EQ(store->Estimate(k).ValueOrDie(), static_cast<double>(expected))
        << "key " << k;
  }
}

// Batch submits: the prefix that fits is enqueued with one publish, an
// invalid record rejects the whole batch, and a blocking submit parks on
// the rest of a batch the way it parks on a single event.
TEST(OverloadPolicyTest, TrySubmitBatchAcceptsThePrefixThatFits) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 8;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();

  std::vector<analytics::KeyWeight> batch;
  for (uint64_t i = 0; i < 12; ++i) batch.push_back({i, i + 1});
  size_t accepted = 99;
  Status st = slot.TrySubmitBatch(batch.data(), batch.size(), &accepted);
  EXPECT_TRUE(st.IsPending()) << st.ToString();
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(pipeline->Stats().events_submitted, 8u);
  EXPECT_EQ(pipeline->Stats().events_rejected, 1u);  // one bounced call

  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  ASSERT_TRUE(pipeline->Flush().ok());
  ASSERT_TRUE(slot.TrySubmitBatch(batch.data() + accepted,
                                  batch.size() - accepted, &accepted)
                  .ok());
  EXPECT_EQ(accepted, 4u);
  ASSERT_TRUE(pipeline->Drain().ok());
  for (uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(store->Estimate(i).ValueOrDie(), static_cast<double>(i + 1));
  }
}

TEST(OverloadPolicyTest, ZeroWeightRejectsTheWholeBatch) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  const analytics::KeyWeight batch[3] = {{1, 1}, {2, 0}, {3, 1}};
  size_t accepted = 99;
  EXPECT_TRUE(slot.TrySubmitBatch(batch, 3, &accepted).IsInvalidArgument());
  EXPECT_EQ(accepted, 0u);
  EXPECT_TRUE(slot.SubmitBatch(batch, 3).IsInvalidArgument());
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, 0u);
  EXPECT_EQ(stats.events_applied, 0u);
  EXPECT_EQ(store->TotalStateBits(), 0u);
}

TEST(OverloadPolicyTest, BlockParksUntilTheRestOfABatchFits) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 8;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  std::vector<analytics::KeyWeight> batch;
  for (uint64_t i = 0; i < 50; ++i) batch.push_back({i % 7, 1});
  std::atomic<bool> done{false};
  std::thread producer([&] {
    EXPECT_TRUE(slot.SubmitBatch(batch.data(), batch.size()).ok());
    done.store(true);
  });
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(done.load());
  EXPECT_EQ(pipeline->Stats().events_submitted, 8u);  // the first fit
  EXPECT_GE(pipeline->Stats().producer_parks, 1u);
  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  producer.join();
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, 50u);
  EXPECT_EQ(stats.events_applied, 50u);
  for (uint64_t k = 0; k < 7; ++k) {
    EXPECT_EQ(store->Estimate(k).ValueOrDie(), k < 1 ? 8.0 : 7.0) << k;
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
