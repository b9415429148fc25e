// Producer-slot registry churn tests: the drained-before-reuse guarantee
// under the exact access pattern the net server creates — many transient
// holders (connections) cycling through few slots. The registry must (a)
// refuse to re-issue a slot whose previous tenant's events are still
// queued, (b) never lease one slot to two holders at once, and (c) lose
// nothing across any number of lease generations.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "pipeline/ingest_pipeline.h"
#include "pipeline/producer_slot.h"
#include "util/logging.h"

namespace countlib {
namespace pipeline {
namespace {

std::unique_ptr<analytics::ShardedCounterStore> MakeExactStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

TEST(ProducerSlotChurnTest, DrainedBeforeReuseIsObservable) {
  // Pause the pipeline so "undrained" is a state we control, not a race:
  // a released-but-full slot must stay unacquirable until the workers
  // have swept it, and the next lease must then see the full capacity.
  constexpr uint64_t kRing = 64;
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.queue_capacity = kRing;
  opt.num_workers = 1;
  auto pipe = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipe->SetWorkerCount(0).ok());

  {
    auto slot = pipe->TryAcquireProducerSlot().ValueOrDie();
    for (uint64_t i = 0; i < kRing; ++i) {
      ASSERT_TRUE(slot.TrySubmit(/*key=*/1, /*weight=*/1).ok());
    }
    ASSERT_TRUE(slot.TrySubmit(1, 1).IsPending());  // ring is full
  }  // released full

  // Released but undrained: the registry must answer kPending, however
  // often we ask.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pipe->TryAcquireProducerSlot().status().IsPending());
  }

  // Resume and wait for the sweep; then the lease must come with the
  // whole ring available again.
  ASSERT_TRUE(pipe->SetWorkerCount(1).ok());
  Result<ProducerSlot> lease = pipe->TryAcquireProducerSlot();
  for (int i = 0; i < 500 && lease.status().IsPending(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    lease = pipe->TryAcquireProducerSlot();
  }
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  ASSERT_TRUE(pipe->SetWorkerCount(0).ok());  // freeze to measure capacity
  auto slot = std::move(lease).ValueOrDie();
  for (uint64_t i = 0; i < kRing; ++i) {
    ASSERT_TRUE(slot.TrySubmit(2, 1).ok()) << "capacity short at " << i;
  }
  EXPECT_TRUE(slot.TrySubmit(2, 1).IsPending());
  slot.Release();

  ASSERT_TRUE(pipe->SetWorkerCount(1).ok());
  ASSERT_TRUE(pipe->Drain().ok());
  // Releasing never discards: both generations' events are applied.
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), static_cast<double>(kRing));
  EXPECT_EQ(store->Estimate(2).ValueOrDie(), static_cast<double>(kRing));
}

TEST(ProducerSlotChurnTest, TryAcquireIsPendingWhileEverySlotIsLeased) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.queue_capacity = 64;
  opt.num_workers = 1;
  auto pipe = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  auto held = pipe->TryAcquireProducerSlot().ValueOrDie();
  EXPECT_TRUE(pipe->TryAcquireProducerSlot().status().IsPending());

  // A blocking acquirer parks until the release, then wins the slot.
  std::thread waiter([&] {
    auto slot = pipe->AcquireProducerSlot().ValueOrDie();
    COUNTLIB_CHECK_OK(slot.Submit(9, 1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  held.Release();
  waiter.join();
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(store->Estimate(9).ValueOrDie(), 1.0);
}

TEST(ProducerSlotChurnTest, ConcurrentChurnIsExclusiveAndLossless) {
  // Far more churning threads than slots, acquire/submit/release in a
  // tight loop. Exclusivity: the count of concurrently held leases never
  // exceeds the slot count. Losslessness: every submitted unit of weight
  // lands in the store.
  constexpr uint64_t kSlots = 4;
  constexpr uint64_t kThreads = 16;
  constexpr uint64_t kRounds = 25;
  constexpr uint64_t kPerLease = 20;

  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = kSlots;
  opt.queue_capacity = 128;
  opt.num_workers = 2;
  auto pipe = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  std::atomic<uint64_t> held{0};
  std::atomic<uint64_t> high_water{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t round = 0; round < kRounds; ++round) {
        auto slot = pipe->AcquireProducerSlot().ValueOrDie();
        // mo: relaxed — the counter is a measurement, not a
        // synchronization edge; the registry's own mutex provides the
        // exclusivity being measured.
        const uint64_t now =
            held.fetch_add(1, std::memory_order_relaxed) + 1;
        uint64_t seen = high_water.load(std::memory_order_relaxed);
        while (now > seen &&
               !high_water.compare_exchange_weak(
                   seen, now, std::memory_order_relaxed)) {
        }
        for (uint64_t i = 0; i < kPerLease; ++i) {
          COUNTLIB_CHECK_OK(slot.Submit(/*key=*/7, /*weight=*/1));
        }
        held.fetch_sub(1, std::memory_order_relaxed);
        slot.Release();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_LE(high_water.load(std::memory_order_relaxed), kSlots);
  EXPECT_GE(high_water.load(std::memory_order_relaxed), 1u);
  ASSERT_TRUE(pipe->Drain().ok());

  constexpr uint64_t kTotal = kThreads * kRounds * kPerLease;
  const PipelineStats stats = pipe->Stats();
  EXPECT_EQ(stats.events_applied, kTotal);
  EXPECT_EQ(stats.slots_in_use, 0u);
  EXPECT_EQ(store->Estimate(7).ValueOrDie(), static_cast<double>(kTotal));
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
