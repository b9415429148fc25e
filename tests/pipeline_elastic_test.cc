// Elasticity tests for the ingestion pipeline: pausing and resuming the
// drain pool (SetWorkerCount), parked producers, and the acceptance stress
// test — transient producer threads leasing slots from the registry while
// the pool pauses and resumes mid-stream, with a zero-lost-events
// postcondition checked against exact counters.

#include "pipeline/ingest_pipeline.h"

#include <gtest/gtest.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"

namespace countlib {
namespace pipeline {
namespace {

std::unique_ptr<analytics::ShardedCounterStore> MakeExactStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

// Leases every producer slot of a fresh pipeline, in slot order.
std::vector<ProducerSlot> LeaseAll(IngestPipeline* pipeline) {
  std::vector<ProducerSlot> slots;
  for (uint64_t i = 0; i < pipeline->num_producers(); ++i) {
    slots.push_back(pipeline->AcquireProducerSlot().ValueOrDie());
  }
  return slots;
}

// Timing bounds on the park path hold in optimized, unsanitized builds;
// sanitizers slow a parked producer's recheck past them.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

double ThreadCpuMillis() {
  struct timespec ts;
  EXPECT_EQ(clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// The pool is fixed at Make: SetWorkerCount only pauses (0) and resumes
// (the Make count), and any other count changes nothing.
TEST(ElasticPipelineTest, SetWorkerCountValidatesAndClamps) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  opt.num_workers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  EXPECT_EQ(pipeline->Stats().workers, 2u);

  for (uint64_t n : {uint64_t{1}, uint64_t{3}, uint64_t{257}}) {
    EXPECT_TRUE(pipeline->SetWorkerCount(n).IsInvalidArgument()) << n;
    EXPECT_EQ(pipeline->Stats().workers, 2u) << n;
  }
  // Each state, entered twice: the repeat is a no-op.
  for (uint64_t n : {uint64_t{0}, uint64_t{0}, uint64_t{2}, uint64_t{2}}) {
    EXPECT_TRUE(pipeline->SetWorkerCount(n).ok()) << n;
    EXPECT_EQ(pipeline->Stats().workers, n);
  }

  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(pipeline->Stats().workers, 0u);
  EXPECT_TRUE(pipeline->SetWorkerCount(2).IsFailedPrecondition());
  EXPECT_TRUE(pipeline->SetWorkerCount(0).IsFailedPrecondition());
}

TEST(ElasticPipelineTest, PauseResumePreservesQueuedEvents) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  opt.num_workers = 2;
  opt.queue_capacity = 4096;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  std::vector<ProducerSlot> slots = LeaseAll(pipeline.get());

  // Interleave submissions with pauses and resumes; every accepted event
  // must survive the hand-over to the next worker generation.
  uint64_t total_weight = 0;
  for (int round = 0; round < 4; ++round) {
    for (ProducerSlot& slot : slots) {
      for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(slot.Submit(/*key=*/1, /*weight=*/2).ok());
        total_weight += 2;
      }
    }
    ASSERT_TRUE(pipeline->SetWorkerCount(round % 2 == 0 ? 0 : 2).ok());
  }
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), static_cast<double>(total_weight));

  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_applied, stats.events_submitted);
  EXPECT_EQ(stats.events_dropped, 0u);
}

// Regression for the SetWorkerCount(0) hang: pausing used to strand
// accepted events behind a Flush that could never finish. The contract is
// now explicit — 0 pauses the pipeline, Flush on a paused backlog fails
// fast instead of hanging, and resuming (or Drain's final sweep) applies
// every queued event.
TEST(ElasticPipelineTest, PauseFailsFlushFastAndResumeAppliesBacklog) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  EXPECT_EQ(pipeline->Stats().workers, 0u);
  std::vector<ProducerSlot> slots = LeaseAll(pipeline.get());
  for (ProducerSlot& slot : slots) {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(slot.TrySubmit(/*key=*/5, /*weight=*/1).ok());
    }
  }
  // Nobody is draining: the backlog sits in the queues and Flush must
  // report that instead of spinning on an impossible quiesce.
  EXPECT_EQ(pipeline->Stats().queue_depth, 200u);
  EXPECT_TRUE(pipeline->Flush().IsFailedPrecondition());
  EXPECT_EQ(pipeline->Stats().events_applied, 0u);

  // Resume: the backlog drains and Flush succeeds again.
  ASSERT_TRUE(pipeline->SetWorkerCount(2).ok());
  ASSERT_TRUE(pipeline->Flush().ok());
  EXPECT_EQ(store->Estimate(5).ValueOrDie(), 200.0);

  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_applied, 200u);
  EXPECT_EQ(stats.events_dropped, 0u);
}

// A paused backlog must also survive going straight to Drain: the final
// sweep is the consumer of last resort.
TEST(ElasticPipelineTest, DrainSweepsPausedBacklog) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 1;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  std::vector<ProducerSlot> slots = LeaseAll(pipeline.get());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(slots[i % 2].TrySubmit(/*key=*/9, /*weight=*/2).ok());
  }
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(9).ValueOrDie(), 600.0);
  EXPECT_EQ(pipeline->Stats().events_dropped, 0u);
}

// The producer-side eventcount acceptance test: a blocking Submit against
// a full ring with no drain in sight parks instead of sleep-polling. While
// parked it must burn ~0 busy passes (TrySubmit retries are bounded by the
// ~50/s timeout backstop alone), and when a drain finally
// frees space it must wake and land the event within one drain, losing
// nothing.
TEST(ElasticPipelineTest, BlockingSubmitParksOnBackpressureAndWakesOnDrain) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 64;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  // Pause, then fill the ring to the brim.
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  uint64_t accepted = 0;
  while (slot.TrySubmit(/*key=*/1, /*weight=*/1).ok()) ++accepted;
  ASSERT_EQ(accepted, 64u);

  const uint64_t rejected_before = pipeline->Stats().events_rejected;
  std::atomic<bool> submitted{false};
  double producer_cpu_ms = 0;
  std::chrono::steady_clock::time_point returned;
  std::thread producer([&] {
    const double cpu_before = ThreadCpuMillis();
    // Blocks: the ring is full and no worker is running. The lease passes
    // to this thread; the main thread submits nothing more through it.
    ASSERT_TRUE(slot.Submit(/*key=*/1, /*weight=*/1).ok());
    returned = std::chrono::steady_clock::now();
    producer_cpu_ms = ThreadCpuMillis() - cpu_before;
    submitted.store(true, std::memory_order_release);
  });

  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_FALSE(submitted.load(std::memory_order_acquire));
  const PipelineStats parked = pipeline->Stats();
  EXPECT_GE(parked.producer_parks, 1u);
  // ~0 busy passes while parked: one try, then one retry per 20ms timeout
  // (~50 in the second), nowhere near the old 10k/s sleep-poll rate.
  EXPECT_LT(parked.events_rejected - rejected_before, 100u);

  // Resume. The first drain pops the full ring, publishes the nonfull
  // epoch, and the parked producer must land its event promptly.
  const auto resume = std::chrono::steady_clock::now();
  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  producer.join();
  EXPECT_TRUE(submitted.load(std::memory_order_acquire));
  const double wake_ms =
      std::chrono::duration<double, std::milli>(returned - resume).count();
  if (kOptimizedBuild) {
    // A parked second costs the producer under 5 ms of CPU, and the wake
    // rides the first drain, not a timeout ladder.
    EXPECT_LT(producer_cpu_ms, 5.0);
    EXPECT_LT(wake_ms, 250.0);
  } else {
    EXPECT_LT(wake_ms, 2000.0);
  }

  ASSERT_TRUE(pipeline->Flush().ok());
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), static_cast<double>(accepted + 1));
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_applied, accepted + 1);
  EXPECT_EQ(stats.events_dropped, 0u);
  EXPECT_GE(stats.producer_wakeups, 1u);
}

// Sustained backpressure under live drains: tiny rings, producers that
// outrun the worker, everything submitted through the blocking Submit.
// Every event must be applied exactly once — parking never drops or
// duplicates — and the exact per-key totals must match.
TEST(ElasticPipelineTest, SustainedBackpressureSubmitLosesNothing) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 1;
  opt.queue_capacity = 8;
  opt.max_batch = 8;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  constexpr uint64_t kEvents = 20000;
  constexpr uint64_t kKeys = 17;
  std::vector<std::vector<uint64_t>> sent(2, std::vector<uint64_t>(kKeys, 0));
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
      uint64_t x = p + 1;
      for (uint64_t i = 0; i < kEvents; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t key = (x >> 33) % kKeys;
        const uint64_t weight = ((x >> 13) % 3) + 1;
        ASSERT_TRUE(slot.Submit(key, weight).ok());
        sent[p][key] += weight;
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(pipeline->Drain().ok());

  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, 2 * kEvents);
  EXPECT_EQ(stats.events_applied, 2 * kEvents);
  EXPECT_EQ(stats.events_dropped, 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    const uint64_t expected = sent[0][k] + sent[1][k];
    if (expected == 0) continue;
    ASSERT_EQ(store->Estimate(k).ValueOrDie(), static_cast<double>(expected))
        << "key " << k;
  }
}

// The acceptance-criteria stress test: transient threads acquire and
// release producer slots from the shared registry (more threads than
// slots) while the main thread pauses and resumes the worker pool
// mid-stream. After Drain, events_applied must equal the sum of OK'd
// submits, and exact per-key totals must match — zero accepted events
// lost or duplicated.
TEST(ElasticPipelineTest, TransientProducersWithPausesLoseNothing) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;   // bounded slot set...
  opt.num_workers = 2;
  opt.queue_capacity = 256;
  opt.max_batch = 128;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  constexpr uint64_t kThreads = 12;  // ...shared by many transient threads
  constexpr uint64_t kLeasesPerThread = 8;
  constexpr uint64_t kEventsPerLease = 2000;
  constexpr uint64_t kKeys = 101;

  std::vector<std::vector<uint64_t>> accepted(kThreads,
                                              std::vector<uint64_t>(kKeys, 0));
  std::atomic<uint64_t> total_ok{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t x = t * 0x9E3779B97F4A7C15ull + 1;
      for (uint64_t lease = 0; lease < kLeasesPerThread; ++lease) {
        auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
        for (uint64_t i = 0; i < kEventsPerLease; ++i) {
          x = x * 6364136223846793005ull + 1442695040888963407ull;
          const uint64_t key = (x >> 33) % kKeys;
          const uint64_t weight = ((x >> 20) % 4) + 1;
          ASSERT_TRUE(slot.Submit(key, weight).ok());
          accepted[t][key] += weight;
          total_ok.fetch_add(1, std::memory_order_relaxed);
        }
        // Handle destruction returns the slot to the registry (often with
        // events still queued — the drained-before-reuse path).
      }
    });
  }

  // Pause and resume the worker pool while the producers churn through
  // leases; it ends resumed.
  for (uint64_t n : {0u, 2u, 0u, 2u, 0u, 2u}) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(pipeline->SetWorkerCount(n).ok());
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(pipeline->Drain().ok());

  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_applied, total_ok.load());
  EXPECT_EQ(stats.events_submitted, total_ok.load());
  EXPECT_EQ(stats.events_dropped, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.slots_in_use, 0u);
  EXPECT_EQ(total_ok.load(), kThreads * kLeasesPerThread * kEventsPerLease);

  std::vector<uint64_t> expected(kKeys, 0);
  for (const auto& per_thread : accepted) {
    for (uint64_t k = 0; k < kKeys; ++k) expected[k] += per_thread[k];
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (expected[k] == 0) continue;
    ASSERT_EQ(store->Estimate(k).ValueOrDie(), static_cast<double>(expected[k]))
        << "key " << k;
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
