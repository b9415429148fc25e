// Tests for the overload-control subsystem: the SpillBuffer primitive,
// kShed's exact per-slot accounting (delivered + shed == submitted, to the
// last event), kSpill's zero-loss guarantee through pause/overflow/resume
// churn, the spill-aware Flush/Drain barriers, and the autoscaler reading
// spill depth as pressure.

#include "pipeline/overload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "pipeline/autoscaler.h"
#include "pipeline/ingest_pipeline.h"

namespace countlib {
namespace pipeline {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::unique_ptr<analytics::ShardedCounterStore> MakeExactStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

TEST(SpillBufferTest, PushPopRoundTripPreservesOrderAndCounts) {
  SpillBuffer spill(8);
  EXPECT_EQ(spill.capacity(), 8u);
  EXPECT_EQ(spill.SizeApprox(), 0u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(spill.TryPush(Event{i, i + 1}));
  }
  EXPECT_FALSE(spill.TryPush(Event{99, 1}));  // full
  EXPECT_EQ(spill.SizeApprox(), 8u);
  EXPECT_EQ(spill.TotalSpilled(), 8u);  // the rejected push is not counted

  Event out[8];
  EXPECT_EQ(spill.PopBatch(out, 3), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].key, i);
    EXPECT_EQ(out[i].weight, i + 1);
  }
  EXPECT_EQ(spill.SizeApprox(), 5u);
  // Freed space is reusable (ring wraparound).
  EXPECT_TRUE(spill.TryPush(Event{100, 7}));
  EXPECT_EQ(spill.PopBatch(out, 8), 6u);
  EXPECT_EQ(out[5].key, 100u);
  EXPECT_EQ(out[5].weight, 7u);
  EXPECT_EQ(spill.SizeApprox(), 0u);
  EXPECT_EQ(spill.PopBatch(out, 8), 0u);
  EXPECT_EQ(spill.TotalSpilled(), 9u);
}

TEST(SpillBufferTest, ConcurrentPushersAndPoppersLoseNothing) {
  SpillBuffer spill(256);
  constexpr uint64_t kPushers = 4;
  constexpr uint64_t kPerPusher = 20000;
  std::atomic<uint64_t> popped_weight{0};
  std::atomic<uint64_t> popped_events{0};
  std::atomic<bool> pushers_done{false};

  std::vector<std::thread> pushers;
  for (uint64_t p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerPusher; ++i) {
        while (!spill.TryPush(Event{p, 1})) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::thread> poppers;
  for (uint64_t c = 0; c < 2; ++c) {
    poppers.emplace_back([&] {
      Event out[64];
      while (true) {
        const uint64_t n = spill.PopBatch(out, 64);
        for (uint64_t i = 0; i < n; ++i) {
          popped_weight.fetch_add(out[i].weight, std::memory_order_relaxed);
        }
        popped_events.fetch_add(n, std::memory_order_relaxed);
        if (n == 0) {
          if (pushers_done.load(std::memory_order_acquire) &&
              spill.SizeApprox() == 0) {
            return;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : pushers) t.join();
  pushers_done.store(true, std::memory_order_release);
  for (auto& t : poppers) t.join();
  EXPECT_EQ(popped_events.load(), kPushers * kPerPusher);
  EXPECT_EQ(popped_weight.load(), kPushers * kPerPusher);
  EXPECT_EQ(spill.TotalSpilled(), kPushers * kPerPusher);
}

// Regression test for capacity(): it used to read buf_.size() without the
// lock — an unguarded read of mutex-protected state (benign only because
// the vector never resizes, but a data race by contract and a
// thread-safety-analysis violation). It is now an immutable member set at
// construction; it must hold its value (including the 0 -> 1 clamp) while
// pushers and poppers churn the buffer.
TEST(SpillBufferTest, CapacityIsImmutableUnderConcurrentChurn) {
  EXPECT_EQ(SpillBuffer(0).capacity(), 1u);  // clamp survives the refactor

  SpillBuffer spill(64);
  std::atomic<bool> stop{false};
  std::thread pusher([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      spill.TryPush(Event{i++, 1});
    }
  });
  std::thread popper([&] {
    Event out[16];
    while (!stop.load(std::memory_order_acquire)) {
      spill.PopBatch(out, 16);
    }
  });
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(spill.capacity(), 64u);
  }
  stop.store(true, std::memory_order_release);
  pusher.join();
  popper.join();
  EXPECT_EQ(spill.capacity(), 64u);
}

TEST(OverloadPolicyTest, NamesAreStable) {
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kBlock), "block");
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kShed), "shed");
  EXPECT_STREQ(OverloadPolicyName(OverloadPolicy::kSpill), "spill");
}

TEST(OverloadPolicyTest, MakeValidatesSpillCapacity) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.overload.policy = OverloadPolicy::kSpill;
  opt.overload.spill_capacity = 0;
  EXPECT_TRUE(IngestPipeline::Make(store.get(), opt).status().IsInvalidArgument());
  opt.overload.spill_capacity = (uint64_t{1} << 30) + 1;
  EXPECT_TRUE(IngestPipeline::Make(store.get(), opt).status().IsInvalidArgument());
  // A zero capacity is fine when the policy never builds a spill buffer.
  opt.overload.policy = OverloadPolicy::kBlock;
  EXPECT_TRUE(IngestPipeline::Make(store.get(), opt).ok());
}

// The shed contract: a paused pipeline (no drain progress at all) forces
// every over-capacity Submit through the shed path, and the accounting
// must balance exactly — delivered + shed == submitted attempts, with the
// per-slot split matching what each slot actually shed.
TEST(OverloadPolicyTest, ShedAccountsExactlyPerSlot) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 1;
  opt.queue_capacity = 64;
  opt.overload.policy = OverloadPolicy::kShed;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  EXPECT_EQ(pipeline->overload_policy(), OverloadPolicy::kShed);
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());  // freeze: no drains

  constexpr uint64_t kAttemptsPerSlot = 500;  // >> ring capacity of 64
  uint64_t attempts = 0;
  for (uint64_t slot = 0; slot < 2; ++slot) {
    for (uint64_t i = 0; i < kAttemptsPerSlot; ++i) {
      // Shed mode: Submit never blocks and never reports kPending, even
      // with zero workers — this loop finishing at all is the
      // bounded-latency assertion.
      ASSERT_TRUE(pipeline->Submit(slot, /*key=*/slot, 1).ok());
      ++attempts;
    }
  }
  const PipelineStats paused = pipeline->Stats();
  EXPECT_EQ(paused.events_submitted + paused.events_shed, attempts);
  EXPECT_GT(paused.events_shed, 0u);
  ASSERT_EQ(paused.shed_per_slot.size(), 2u);
  EXPECT_EQ(paused.shed_per_slot[0] + paused.shed_per_slot[1],
            paused.events_shed);
  // Both slots filled their private rings and shed the rest.
  EXPECT_EQ(paused.shed_per_slot[0], kAttemptsPerSlot - opt.queue_capacity);
  EXPECT_EQ(paused.shed_per_slot[1], kAttemptsPerSlot - opt.queue_capacity);

  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  // The balance sheet closes: every attempt was either applied or shed.
  EXPECT_EQ(stats.events_applied + stats.events_shed, attempts);
  EXPECT_EQ(stats.events_applied, stats.events_submitted);
  const double delivered = store->Estimate(0).ValueOrDie() +
                           store->Estimate(1).ValueOrDie();
  EXPECT_EQ(delivered, static_cast<double>(stats.events_applied));
}

// The spill contract: overflow beyond the rings goes to the spill buffer
// and NOTHING is lost — after resume and drain, every submitted event is
// in the store.
TEST(OverloadPolicyTest, SpillLosesNothingAcrossPauseOverflowResume) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 64;
  opt.overload.policy = OverloadPolicy::kSpill;
  opt.overload.spill_capacity = 4096;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());  // freeze the rings

  constexpr uint64_t kEvents = 1000;  // ring 64 + spill overflow
  uint64_t total_weight = 0;
  for (uint64_t i = 0; i < kEvents; ++i) {
    const uint64_t weight = (i % 3) + 1;
    ASSERT_TRUE(pipeline->Submit(0, /*key=*/5, weight).ok());
    total_weight += weight;
  }
  const PipelineStats paused = pipeline->Stats();
  EXPECT_EQ(paused.events_submitted, kEvents);
  EXPECT_GT(paused.events_spilled, 0u);
  EXPECT_EQ(paused.spill_depth, paused.events_spilled);  // nothing drained yet
  EXPECT_EQ(paused.queue_depth + paused.spill_depth, kEvents);
  EXPECT_EQ(paused.events_shed, 0u);

  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  ASSERT_TRUE(pipeline->Flush().ok());  // spill-aware: waits for spill too
  const PipelineStats flushed = pipeline->Stats();
  EXPECT_EQ(flushed.spill_depth, 0u);
  EXPECT_EQ(flushed.events_applied, kEvents);
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(5).ValueOrDie(), static_cast<double>(total_weight));
}

// When the spill buffer itself fills, kSpill degrades to blocking — and an
// event parked on the full ring+spill must still land once a drain frees
// space (the no-loss guarantee holds through the fallback).
TEST(OverloadPolicyTest, SpillFallsBackToBlockingWhenSpillIsFull) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 4;
  opt.overload.policy = OverloadPolicy::kSpill;
  opt.overload.spill_capacity = 4;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());

  // Fill ring (4) + spill (4).
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(pipeline->Submit(0, /*key=*/1, 1).ok());
  }
  EXPECT_EQ(pipeline->Stats().spill_depth, 4u);

  // The ninth submit must block (not shed, not fail) until the resume.
  std::atomic<bool> landed{false};
  std::thread producer([&] {
    ASSERT_TRUE(pipeline->Submit(0, /*key=*/1, 1).ok());
    landed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_FALSE(landed.load(std::memory_order_acquire))
      << "Submit returned while ring and spill were both full";
  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  producer.join();
  EXPECT_TRUE(landed.load());
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), 9.0);
  EXPECT_EQ(pipeline->Stats().events_shed, 0u);
}

// Paused pipeline with events only in the spill buffer: Flush must fail
// fast (kFailedPrecondition), not hang — the spill backlog counts as
// "events queued".
TEST(OverloadPolicyTest, FlushFailsFastWhenPausedWithSpillBacklog) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 2;
  opt.overload.policy = OverloadPolicy::kSpill;
  opt.overload.spill_capacity = 64;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipeline->Submit(0, 1, 1).ok());
  }
  EXPECT_GT(pipeline->Stats().spill_depth, 0u);
  EXPECT_TRUE(pipeline->Flush().IsFailedPrecondition());
  ASSERT_TRUE(pipeline->Drain().ok());  // the final sweep still applies it all
  EXPECT_EQ(store->Estimate(1).ValueOrDie(), 10.0);
}

// Concurrent spill-mode stress with worker churn: multiple producers
// overflow small rings into the spill while SetWorkerCount repartitions
// ownership mid-stream. Zero loss, zero sheds, exact store totals.
TEST(OverloadPolicyTest, SpillStressWithResizesLosesNothing) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  opt.num_workers = 2;
  opt.queue_capacity = 32;   // tiny rings: spill engages under load
  opt.max_batch = 64;
  opt.overload.policy = OverloadPolicy::kSpill;
  opt.overload.spill_capacity = 1024;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  constexpr uint64_t kKeys = 61;
  constexpr uint64_t kEventsPerProducer = 20000;
  std::vector<std::vector<uint64_t>> submitted(opt.num_producers,
                                               std::vector<uint64_t>(kKeys, 0));
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < opt.num_producers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t x = p * 7919 + 1;
      for (uint64_t i = 0; i < kEventsPerProducer; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t key = (x >> 33) % kKeys;
        const uint64_t weight = ((x >> 20) % 4) + 1;
        ASSERT_TRUE(pipeline->Submit(p, key, weight).ok());
        submitted[p][key] += weight;
      }
    });
  }
  for (uint64_t n : {uint64_t{4}, uint64_t{1}, uint64_t{3}}) {
    std::this_thread::sleep_for(milliseconds(15));
    ASSERT_TRUE(pipeline->SetWorkerCount(n).ok());
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(pipeline->Drain().ok());

  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, opt.num_producers * kEventsPerProducer);
  EXPECT_EQ(stats.events_applied, stats.events_submitted);
  EXPECT_EQ(stats.events_shed, 0u);
  EXPECT_EQ(stats.spill_depth, 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t expected = 0;
    for (const auto& per : submitted) expected += per[k];
    if (expected == 0) continue;
    ASSERT_EQ(store->Estimate(k).ValueOrDie(), static_cast<double>(expected))
        << "key " << k;
  }
}

// The autoscaler must read spill depth as pressure. Setup makes ring
// depth provably insufficient: the rings hold at most 64 events, the up
// threshold is 512, and the backlog (frozen by pausing the pipeline) sits
// almost entirely in the spill buffer — so the pool growing at all, let
// alone past one worker, requires spill depth in the vote.
TEST(OverloadPolicyTest, AutoscalerGrowsOnSpillPressure) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  opt.num_workers = 1;
  opt.queue_capacity = 16;  // total ring capacity 64 << the up threshold
  opt.max_batch = 8;        // slow drain so the pressure persists
  opt.overload.policy = OverloadPolicy::kSpill;
  opt.overload.spill_capacity = 1 << 16;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  // Freeze the rings and pile the backlog into the spill buffer.
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  constexpr uint64_t kBacklog = 60000;
  for (uint64_t i = 0; i < kBacklog; ++i) {
    ASSERT_TRUE(pipeline->Submit(i % 4, /*key=*/i % 4, 1).ok());
  }
  const PipelineStats frozen = pipeline->Stats();
  ASSERT_LE(frozen.queue_depth, 64u);
  ASSERT_GE(frozen.spill_depth, kBacklog - 64);

  AutoscalerConfig config;
  config.min_workers = 1;
  config.max_workers = 4;
  config.sample_interval = milliseconds(5);
  config.cooldown = milliseconds(10);
  config.scale_up_queue_depth = 512;  // unreachable from rings alone (cap 64)
  config.scale_up_samples = 1;
  config.scale_down_queue_depth = 16;
  config.scale_down_samples = 1000000;  // shrink not under test
  auto scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();

  // The spill pressure must first un-pause the pool (the min_workers floor
  // rescue) and then keep doubling it while the backlog drains.
  uint64_t peak_workers = 0;
  const auto deadline = steady_clock::now() + std::chrono::seconds(20);
  while (steady_clock::now() < deadline) {
    peak_workers = std::max(peak_workers, pipeline->num_workers());
    if (peak_workers > 1) break;
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GT(peak_workers, 1u)
      << "spill pressure never grew the pool (ring depth alone cannot reach "
         "the threshold)";
  scaler->Stop();
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, kBacklog);
  EXPECT_EQ(stats.events_applied, kBacklog);
  EXPECT_EQ(stats.events_shed, 0u);
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
