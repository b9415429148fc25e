// End-to-end tests for the async batched ingestion pipeline. The store is
// configured with exact counters so "no lost updates" is checkable to the
// last unit of weight: after Drain, every key's estimate must equal the
// exact total weight submitted for it.

#include "pipeline/ingest_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/sharded_counter_store.h"
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

// Leases every producer slot of a fresh pipeline, in slot order.
std::vector<ProducerSlot> LeaseAll(IngestPipeline* pipeline) {
  std::vector<ProducerSlot> slots;
  for (uint64_t i = 0; i < pipeline->num_producers(); ++i) {
    slots.push_back(pipeline->AcquireProducerSlot().ValueOrDie());
  }
  return slots;
}

TEST(IngestPipelineTest, MakeValidatesOptions) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  EXPECT_FALSE(IngestPipeline::Make(nullptr, opt).ok());
  opt.num_producers = 0;
  EXPECT_FALSE(IngestPipeline::Make(store.get(), opt).ok());
  opt.num_producers = 4;
  opt.num_workers = 0;
  EXPECT_FALSE(IngestPipeline::Make(store.get(), opt).ok());
  // More workers than producer slots, then more than store lanes.
  opt.num_workers = 5;
  EXPECT_TRUE(IngestPipeline::Make(store.get(), opt).status()
                  .IsInvalidArgument());
  auto two_lanes = analytics::ShardedCounterStore::Make(
                       /*num_shards=*/2, CounterKind::kExact, 32,
                       (uint64_t{1} << 32) - 1, /*seed=*/1)
                       .ValueOrDie();
  opt.num_workers = 3;
  EXPECT_TRUE(IngestPipeline::Make(two_lanes.get(), opt).status()
                  .IsInvalidArgument());
  opt.num_workers = 1;
  opt.max_batch = 0;
  EXPECT_FALSE(IngestPipeline::Make(store.get(), opt).ok());
  opt.max_batch = (uint64_t{1} << 16) + 1;  // each worker sizes scratch by it
  EXPECT_FALSE(IngestPipeline::Make(store.get(), opt).ok());
  opt.max_batch = 64;
  opt.queue_capacity = 1;
  EXPECT_FALSE(IngestPipeline::Make(store.get(), opt).ok());
  opt.queue_capacity = uint64_t{1} << 62;  // would overflow pow2 rounding
  EXPECT_FALSE(IngestPipeline::Make(store.get(), opt).ok());
}

TEST(IngestPipelineTest, SubmitValidatesArguments) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  EXPECT_TRUE(slot.TrySubmit(1, 0).IsInvalidArgument());  // zero weight
  EXPECT_TRUE(slot.TrySubmit(42, 3).ok());
  EXPECT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(42).ValueOrDie(), 3.0);
}

// Wire weights may be any nonzero u64, and every counter saturates, so the
// drain's fold must too: three events of weight 2^63, 2^63 and 5 read the
// exact-32 cap whether each is its own batch or all fold into one (a
// wrapping fold read 5).
TEST(IngestPipelineTest, FoldSaturatesLikeTheCounters) {
  const uint64_t half = uint64_t{1} << 63;
  const std::vector<analytics::KeyWeight> events = {{7, half}, {7, half},
                                                    {7, 5}};
  for (uint64_t max_batch : {uint64_t{1}, uint64_t{1024}}) {
    SCOPED_TRACE(max_batch);
    auto store = MakeExactStore();
    PipelineOptions opt;
    opt.max_batch = max_batch;
    auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
    ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
    {
      auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
      ASSERT_TRUE(slot.SubmitBatch(events.data(), events.size()).ok());
    }
    ASSERT_TRUE(pipeline->Drain().ok());
    EXPECT_EQ(pipeline->Stats().batches_applied, max_batch == 1 ? 3u : 1u);
    EXPECT_EQ(store->Estimate(7).ValueOrDie(), 4294967295.0);
  }
}

// The acceptance-criteria test: >= 4 concurrent producers, random weights,
// exact counters — after Drain every key's estimate equals the exact
// submitted total, i.e. zero lost and zero duplicated updates.
TEST(IngestPipelineTest, MultiProducerStressLosesNothing) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 6;
  opt.num_workers = 3;
  opt.queue_capacity = 256;
  opt.max_batch = 128;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  constexpr uint64_t kKeys = 257;  // prime, so keys spread unevenly
  constexpr uint64_t kEventsPerProducer = 30000;
  std::vector<std::vector<uint64_t>> submitted(opt.num_producers,
                                               std::vector<uint64_t>(kKeys, 0));
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < opt.num_producers; ++p) {
    producers.emplace_back([&, p] {
      auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
      // Cheap deterministic per-producer stream of (key, weight).
      uint64_t x = p * 1000003 + 12345;
      for (uint64_t i = 0; i < kEventsPerProducer; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t key = (x >> 33) % kKeys;
        const uint64_t weight = ((x >> 20) % 5) + 1;
        ASSERT_TRUE(slot.Submit(key, weight).ok());
        submitted[p][key] += weight;
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(pipeline->Drain().ok());

  std::vector<uint64_t> expected(kKeys, 0);
  for (const auto& per_producer : submitted) {
    for (uint64_t k = 0; k < kKeys; ++k) expected[k] += per_producer[k];
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (expected[k] == 0) {
      EXPECT_TRUE(store->Estimate(k).status().IsNotFound());
      continue;
    }
    ASSERT_EQ(store->Estimate(k).ValueOrDie(), static_cast<double>(expected[k]))
        << "key " << k;
  }

  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, opt.num_producers * kEventsPerProducer);
  EXPECT_EQ(stats.events_applied, stats.events_submitted);
  EXPECT_EQ(stats.events_dropped, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GT(stats.batches_applied, 0u);
  // Pre-aggregation must have collapsed duplicate keys within batches.
  EXPECT_LT(stats.updates_applied, stats.events_applied);
}

TEST(IngestPipelineTest, BackpressureSurfacesPendingAndLosesNothing) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 2;  // tiny queue: producer outruns the worker
  opt.max_batch = 1;       // worker applies one event per pass
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  constexpr uint64_t kEvents = 20000;
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  uint64_t pendings = 0;
  uint64_t total_weight = 0;
  for (uint64_t i = 0; i < kEvents; ++i) {
    const uint64_t weight = (i % 3) + 1;
    while (true) {
      Status st = slot.TrySubmit(/*key=*/7, weight);
      if (st.ok()) break;
      ASSERT_TRUE(st.IsPending()) << st.ToString();
      ++pendings;
      std::this_thread::yield();
    }
    total_weight += weight;
  }
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(7).ValueOrDie(), static_cast<double>(total_weight));

  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, kEvents);
  EXPECT_EQ(stats.events_applied, kEvents);
  EXPECT_EQ(stats.events_rejected, pendings);
  EXPECT_GT(pendings, 0u) << "queue of 2 never filled in " << kEvents
                          << " tight-loop submits";
}

TEST(IngestPipelineTest, FlushIsAQuiescePoint) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  std::vector<ProducerSlot> slots = LeaseAll(pipeline.get());

  ASSERT_TRUE(slots[0].Submit(1, 10).ok());
  ASSERT_TRUE(slots[1].Submit(2, 20).ok());
  ASSERT_TRUE(pipeline->Flush().ok());
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), 10.0);
  EXPECT_EQ(store->Estimate(2).ValueOrDie(), 20.0);

  // The pipeline stays open after Flush.
  ASSERT_TRUE(slots[0].Submit(1, 5).ok());
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), 15.0);
}

TEST(IngestPipelineTest, DoubleDrainIsIdempotent) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  std::vector<ProducerSlot> slots = LeaseAll(pipeline.get());
  ASSERT_TRUE(slots[0].Submit(5, 2).ok());
  ASSERT_TRUE(slots[1].Submit(5, 3).ok());

  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats after_first = pipeline->Stats();
  EXPECT_EQ(store->Estimate(5).ValueOrDie(), 5.0);

  // Second (and third) Drain: same result, no double-apply.
  ASSERT_TRUE(pipeline->Drain().ok());
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats after_third = pipeline->Stats();
  EXPECT_EQ(store->Estimate(5).ValueOrDie(), 5.0);
  EXPECT_EQ(after_third.events_applied, after_first.events_applied);
  EXPECT_EQ(after_third.batches_applied, after_first.batches_applied);

  // Submission is closed once draining, even through a live lease.
  EXPECT_TRUE(slots[0].TrySubmit(5, 1).IsFailedPrecondition());
  EXPECT_TRUE(slots[0].Submit(5, 1).IsFailedPrecondition());
}

// After a long idle stretch the workers must be parked on the CV (near-zero
// idle passes, no sleep-poll spinning), yet a fresh submit must still be
// applied promptly — every push notifies.
TEST(IngestPipelineTest, CvWakeupDeliversPromptlyAfterLongIdle) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();

  // Let the workers run through their spin budget and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const PipelineStats idle_stats = pipeline->Stats();
  // The old yield/sleep backoff burned ~10k passes/s per worker; parked
  // workers wake at most ~20 times/s each. Allow generous slack for slow CI.
  EXPECT_LT(idle_stats.idle_passes, 2000u)
      << "workers appear to be poll-spinning instead of parking";

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(slot.TrySubmit(77, 9).ok());
  ASSERT_TRUE(pipeline->Flush().ok());
  const double wake_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_EQ(store->Estimate(77).ValueOrDie(), 9.0);
  // Wakeup + drain + flush handshake; the 50ms sleep timeout backstop plus
  // scheduling jitter bounds this, with wide margin for loaded CI.
  EXPECT_LT(wake_ms, 2000.0);

  // A quiet second after the flush is near free: the parked workers apply
  // no batch, and their timeout rechecks stay far below the ~10k passes/s
  // per worker of a sleep-poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // settle
  const PipelineStats before = pipeline->Stats();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const PipelineStats after = pipeline->Stats();
  EXPECT_EQ(after.batches_applied, before.batches_applied);
  EXPECT_LT(after.idle_passes - before.idle_passes, 1000u);
  ASSERT_TRUE(pipeline->Drain().ok());
}

TEST(IngestPipelineTest, SlotRegistryLeasesAndReleases) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  auto a = pipeline->AcquireProducerSlot().ValueOrDie();
  auto b = pipeline->TryAcquireProducerSlot().ValueOrDie();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.slot(), b.slot());
  EXPECT_EQ(pipeline->Stats().slots_in_use, 2u);

  // Every slot leased: a further attempt reports kPending, without blocking.
  EXPECT_TRUE(pipeline->TryAcquireProducerSlot().status().IsPending());

  ASSERT_TRUE(a.Submit(1, 5).ok());
  ASSERT_TRUE(b.Submit(2, 7).ok());
  b.Release();
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(b.Submit(2, 1).IsFailedPrecondition());  // released handle
  EXPECT_EQ(pipeline->Stats().slots_in_use, 1u);

  // Released events are still applied; the slot is reusable once drained.
  ASSERT_TRUE(pipeline->Flush().ok());
  auto c = pipeline->AcquireProducerSlot().ValueOrDie();
  ASSERT_TRUE(c.Submit(3, 2).ok());

  // Move semantics: the source handle goes invalid, the lease moves.
  ProducerSlot moved = std::move(c);
  EXPECT_FALSE(c.valid());
  EXPECT_TRUE(moved.valid());
  ASSERT_TRUE(moved.Submit(3, 1).ok());

  // Move-assigning onto a live handle releases the overwritten lease: the
  // registry gets that slot back and, once it is drained, leases it again.
  const uint64_t overwritten = a.slot();
  const uint64_t kept = moved.slot();
  a = std::move(moved);
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.slot(), kept);
  EXPECT_EQ(pipeline->Stats().slots_in_use, 1u);
  ASSERT_TRUE(pipeline->Flush().ok());
  auto d = pipeline->TryAcquireProducerSlot().ValueOrDie();
  EXPECT_EQ(d.slot(), overwritten);
  EXPECT_EQ(pipeline->Stats().slots_in_use, 2u);
  ASSERT_TRUE(d.Submit(4, 6).ok());
  ASSERT_TRUE(a.Submit(3, 1).ok());

  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), 5.0);
  EXPECT_EQ(store->Estimate(2).ValueOrDie(), 7.0);
  EXPECT_EQ(store->Estimate(3).ValueOrDie(), 4.0);
  EXPECT_EQ(store->Estimate(4).ValueOrDie(), 6.0);

  // Acquisition after drain fails; releasing outstanding handles is safe.
  EXPECT_TRUE(pipeline->AcquireProducerSlot().status().IsFailedPrecondition());
  EXPECT_TRUE(
      pipeline->TryAcquireProducerSlot().status().IsFailedPrecondition());
  a.Release();
  d.Release();
  EXPECT_EQ(pipeline->Stats().slots_in_use, 0u);
}

TEST(IngestPipelineTest, AcquireBlocksUntilAReleaseThenSucceeds) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  auto only = pipeline->AcquireProducerSlot().ValueOrDie();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
    acquired.store(true);
    ASSERT_TRUE(slot.Submit(9, 4).ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());  // still parked: the one slot is leased
  only.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(9).ValueOrDie(), 4.0);
}

TEST(IngestPipelineTest, StatsReportQueueDepthWhileIdleWorkerSleeps) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.queue_capacity = 1024;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(slot.Submit(i, 1).ok());
  }
  ASSERT_TRUE(pipeline->Flush().ok());
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, 100u);
  EXPECT_EQ(stats.events_applied, 100u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_TRUE(pipeline->LastError().ok());
}

// Regression for the destructor discarding Drain()'s status: destruction
// without an explicit Drain must still drain every accepted event, and a
// clean final drain must not emit an error line through the destructor's
// status-surfacing path.
TEST(IngestPipelineTest, DestructorDrainsAndSurfacesStatus) {
  std::vector<std::string> error_lines;
  std::mutex sink_mu;
  SetLogSink([&](LogLevel level, const std::string& line) {
    if (level == LogLevel::kError) {
      std::lock_guard<std::mutex> lock(sink_mu);
      error_lines.push_back(line);
    }
  });

  auto store = MakeExactStore();
  {
    PipelineOptions opt;
    opt.num_producers = 2;
    auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
    std::vector<ProducerSlot> slots = LeaseAll(pipeline.get());
    ASSERT_TRUE(slots[0].Submit(7, 3).ok());
    ASSERT_TRUE(slots[1].Submit(7, 4).ok());
    // No Drain() here: the destructor owns the final drain (the leases are
    // released first, as they must be).
  }
  SetLogSink(nullptr);

  EXPECT_EQ(store->Estimate(7).ValueOrDie(), 7.0);
  EXPECT_TRUE(error_lines.empty());
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
