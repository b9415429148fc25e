// Tests for the obs core: striped counters, log2 histograms, and the
// registry. The multithreaded cases double as the TSAN targets for the
// instruments' lock-free paths (CI runs suites matching "Obs" under TSAN).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/timer.h"

namespace countlib {
namespace obs {
namespace {

TEST(ObsCounterTest, StartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(ObsCounterTest, FoldIsExactAfterThreadsJoin) {
  // 8 threads hammer one counter; the join publishes every stripe, so the
  // fold must be exact — a lost increment here is a striping bug.
  Counter c;
  constexpr uint64_t kThreads = 8;
  constexpr uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsCounterTest, ConcurrentReadsSeeMonotonicValues) {
  Counter c;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) c.Add();
  });
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = c.Value();
    EXPECT_GE(v, last);
    last = v;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(ObsHistogramTest, BucketForIsBitWidth) {
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(1023), 10);
  EXPECT_EQ(Histogram::BucketFor(1024), 11);
  EXPECT_EQ(Histogram::BucketFor(~uint64_t{0}), 64);
}

TEST(ObsHistogramTest, SnapshotCountSumMax) {
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(100);
  h.Record(1000);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 1101u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.buckets[0], 1u);  // the value 0
  EXPECT_EQ(snap.buckets[1], 1u);  // 1
  EXPECT_EQ(snap.buckets[7], 1u);  // 100 in [64, 128)
  EXPECT_EQ(snap.buckets[10], 1u); // 1000 in [512, 1024)
}

TEST(ObsHistogramTest, PercentilesAreOrderedAndClampedToMax) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  const HistogramSnapshot snap = h.Snapshot();
  const uint64_t p50 = snap.Percentile(0.50);
  const uint64_t p90 = snap.Percentile(0.90);
  const uint64_t p99 = snap.Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, snap.max);
  // Rank 500 of 1..1000 lands in the [256, 512) bucket, reported as its
  // upper bound (log2 resolution), never above max.
  EXPECT_EQ(p50, 511u);
  EXPECT_EQ(snap.Percentile(1.0), 1000u);  // clamped to max
  EXPECT_EQ(snap.Percentile(0.0), 1u);     // lowest populated bucket bound
}

TEST(ObsHistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Percentile(0.5), 0u);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(ObsHistogramTest, MergeFoldsBucketsCountsAndMax) {
  Histogram a, b;
  a.Record(5);
  a.Record(100);
  b.Record(5);
  b.Record(70000);
  HistogramSnapshot sa = a.Snapshot();
  const HistogramSnapshot sb = b.Snapshot();
  sa.Merge(sb);
  EXPECT_EQ(sa.count, 4u);
  EXPECT_EQ(sa.sum, 70110u);
  EXPECT_EQ(sa.max, 70000u);
  EXPECT_EQ(sa.buckets[3], 2u);  // both 5s
}

TEST(ObsHistogramTest, ConcurrentRecordAndSnapshotIsConsistent) {
  // TSAN target: recorders hammer while a reader snapshots. Every
  // snapshot must be internally consistent (count == sum of buckets, by
  // construction) and monotone in count; the final fold must be exact.
  Histogram h;
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record(t * 1000 + i % 977);
    });
  }
  uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const HistogramSnapshot snap = h.Snapshot();
    uint64_t bucket_total = 0;
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      bucket_total += snap.buckets[b];
    }
    EXPECT_EQ(snap.count, bucket_total);
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot final_snap = h.Snapshot();
  EXPECT_EQ(final_snap.count, kThreads * kPerThread);
}

TEST(ObsRegistryTest, SanitizeName) {
  EXPECT_EQ(Registry::SanitizeName("countlib_pipeline_queue_depth"),
            "countlib_pipeline_queue_depth");
  EXPECT_EQ(Registry::SanitizeName("bad name-with.dots"),
            "bad_name_with_dots");
  EXPECT_EQ(Registry::SanitizeName("9starts_with_digit"),
            "_9starts_with_digit");
  EXPECT_EQ(Registry::SanitizeName(""), "_");
}

TEST(ObsRegistryTest, RegistrationRaiiDeregisters) {
  Registry reg;
  Counter c;
  EXPECT_EQ(reg.NumRegistered(), 0u);
  {
    Registration r = reg.RegisterCounter("c", &c);
    EXPECT_EQ(reg.NumRegistered(), 1u);
  }
  EXPECT_EQ(reg.NumRegistered(), 0u);
}

TEST(ObsRegistryTest, ReleaseIsIdempotentAndMoveTransfers) {
  Registry reg;
  Counter c;
  Registration r = reg.RegisterCounter("c", &c);
  Registration moved = std::move(r);
  r.Release();  // moved-from: no-op
  EXPECT_EQ(reg.NumRegistered(), 1u);
  moved.Release();
  EXPECT_EQ(reg.NumRegistered(), 0u);
  moved.Release();  // idempotent
  EXPECT_EQ(reg.NumRegistered(), 0u);
}

TEST(ObsRegistryTest, SnapshotAggregatesSameNamedInstruments) {
  // Two pipelines in one process export under the same names; a scrape
  // should see their sum/merge, not one of them.
  Registry reg;
  Counter c1, c2;
  c1.Add(10);
  c2.Add(32);
  Histogram h1, h2;
  h1.Record(5);
  h2.Record(500);
  const Registration r1 = reg.RegisterCounter("events_total", &c1);
  const Registration r2 = reg.RegisterCounter("events_total", &c2);
  const Registration r3 = reg.RegisterHistogram("lat_ns", &h1);
  const Registration r4 = reg.RegisterHistogram("lat_ns", &h2);
  const Registration r5 =
      reg.RegisterGauge("depth", [] { return 3.0; });
  const Registration r6 =
      reg.RegisterGauge("depth", [] { return 4.0; });
  const Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.counters.at("events_total"), 42u);
  EXPECT_EQ(snap.histograms.at("lat_ns").count, 2u);
  EXPECT_EQ(snap.histograms.at("lat_ns").max, 500u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 7.0);
}

TEST(ObsRegistryTest, ConcurrentRegisterSnapshotUnregister) {
  // TSAN target for the registry mutex: threads churn registrations while
  // a reader snapshots.
  Registry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&reg, &stop] {
      Counter c;
      c.Add(1);
      while (!stop.load(std::memory_order_acquire)) {
        Registration r = reg.RegisterCounter("churn_total", &c);
        const Snapshot snap = reg.TakeSnapshot();
        EXPECT_GE(snap.counters.at("churn_total"), 1u);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    (void)reg.TakeSnapshot();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) t.join();
  EXPECT_EQ(reg.NumRegistered(), 0u);
}

TEST(ObsTimerTest, NowNanosIsNonzeroAndNeverDecreases) {
  // 0 means "no timestamp" to the pipeline, so a real reading must never
  // be 0; and submit→apply latency is now - ts with no underflow guard.
  uint64_t prev = NowNanos();
  EXPECT_GT(prev, 0u);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t now = NowNanos();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace obs
}  // namespace countlib
