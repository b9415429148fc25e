// End-to-end telemetry tests for the instrumented ingest path: exported
// counters vs Stats(), deterministic 1-in-64 submit→apply latency
// sampling on the steady clock, the must-stay-zero invariants after
// stress, the zero-heap-allocation guarantee on the recording hot path
// (this binary owns a counting operator new for that), and the CPU cost
// of turning the instruments on.

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "stream/trace.h"

// Binary-wide allocation counter: the zero-alloc tests diff it around a
// measured region with no other threads running.
namespace {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// noinline: inlined into a caller, the std::free below meets a pointer from
// a new-expression, which gcc 12 reports as -Wmismatched-new-delete.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace countlib {
namespace pipeline {
namespace {

// The CPU cost bound holds in optimized, unsanitized builds; sanitizers
// inflate the instrumented and plain paths unevenly.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

std::unique_ptr<analytics::ShardedCounterStore> MakeStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

TEST(PipelineObsTest, DisabledByDefaultRegistersNothing) {
  // The store registers its own instruments; the pipeline adds none.
  auto store = MakeStore();
  const uint64_t before = obs::Registry::Default().NumRegistered();
  PipelineOptions options;
  options.num_producers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), options).ValueOrDie();
  EXPECT_EQ(obs::Registry::Default().NumRegistered(), before);
}

TEST(PipelineObsTest, ExportedCountersMatchStats) {
  auto store = MakeStore();
  PipelineOptions options;
  options.num_producers = 2;
  options.enable_metrics = true;
  {
    auto pipeline = IngestPipeline::Make(store.get(), options).ValueOrDie();
    ProducerSlot slots[2] = {pipeline->AcquireProducerSlot().ValueOrDie(),
                             pipeline->AcquireProducerSlot().ValueOrDie()};
    for (uint64_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(slots[i % 2].Submit(i % 37, 1).ok());
    }
    ASSERT_TRUE(pipeline->Flush().ok());
    const PipelineStats stats = pipeline->Stats();
    const obs::Snapshot snap = obs::GlobalSnapshot();
    EXPECT_EQ(snap.counters.at("countlib_pipeline_events_submitted_total"),
              stats.events_submitted);
    EXPECT_EQ(snap.counters.at("countlib_pipeline_events_applied_total"),
              stats.events_applied);
    EXPECT_EQ(snap.counters.at("countlib_pipeline_batches_applied_total"),
              stats.batches_applied);
    EXPECT_EQ(snap.counters.at("countlib_pipeline_events_applied_total"),
              500u);
    // Store-side counters ride the same registry.
    const analytics::StoreStats store_stats = store->Stats();
    EXPECT_EQ(snap.counters.at("countlib_store_batch_updates_total"),
              store_stats.batch_updates);
    EXPECT_GT(snap.gauges.at("countlib_store_shard_keys"), 0.0);
    // Quiesced: nothing in flight, nothing unaccounted.
    EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_pipeline_queue_depth"), 0.0);
    EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_pipeline_unaccounted_events"),
                     0.0);
  }
  // Pipeline destruction released its registrations; only the store's
  // names remain.
  const obs::Snapshot after = obs::GlobalSnapshot();
  EXPECT_EQ(after.counters.count("countlib_pipeline_events_submitted_total"),
            0u);
  EXPECT_EQ(after.counters.count("countlib_store_batch_calls_total"), 1u);
}

TEST(PipelineObsTest, SubmitApplyLatencyRecordsDeterministically) {
  // Pause the pipeline, submit 512 events from this thread, hold them for
  // 5 ms, resume, flush. 512 consecutive submits from one thread contain
  // exactly 8 of its 1-in-64 stamps, whatever it submitted before, and
  // every stamped event waited at least the 5 ms pause.
  auto store = MakeStore();
  PipelineOptions options;
  options.num_producers = 1;
  options.enable_metrics = true;
  auto pipeline = IngestPipeline::Make(store.get(), options).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  for (uint64_t i = 0; i < 512; ++i) {
    ASSERT_TRUE(slot.TrySubmit(i, 1).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  ASSERT_TRUE(pipeline->Flush().ok());
  const obs::Snapshot snap = obs::GlobalSnapshot();
  const obs::HistogramSnapshot lat =
      snap.histograms.at("countlib_pipeline_submit_apply_latency_ns");
  EXPECT_EQ(lat.count, 8u);
  // 5 ms > 2^22 ns: no sample lands in a bucket that ends below 2^22.
  for (int b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
    if (obs::HistogramSnapshot::BucketUpperBound(b) < 4194304) {
      EXPECT_EQ(lat.buckets[b], 0u) << "bucket " << b;
    }
  }
  EXPECT_LE(lat.Percentile(0.50), lat.Percentile(0.99));
  EXPECT_LE(lat.Percentile(0.99), lat.max);
  // The batch-drain histogram saw at least one applied batch.
  EXPECT_GE(snap.histograms.at("countlib_pipeline_batch_drain_latency_ns")
                .count,
            1u);
}

TEST(PipelineObsTest, InvariantsZeroAfterStress) {
  // Multi-producer stress with worker-pool pauses; after the dust settles
  // every must-stay-zero metric must read zero and the accounting must
  // balance to the last event.
  auto store = MakeStore();
  PipelineOptions options;
  options.num_producers = 4;
  options.num_workers = 2;
  options.queue_capacity = 256;
  options.enable_metrics = true;
  auto pipeline = IngestPipeline::Make(store.get(), options).ValueOrDie();

  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kThreads; ++p) {
    producers.emplace_back([&pipeline] {
      auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(slot.Submit(i % 101, 1).ok());
      }
    });
  }
  // Pause and resume back to back at each quarter of the stream while the
  // producers run (a pool left paused would stall the blocking producers;
  // the deadline only guards against a producer that died early). EXPECT,
  // not ASSERT: a failed call must not return before the producer threads
  // are joined.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (uint64_t quarter = 1; quarter <= 3; ++quarter) {
    const uint64_t mark = quarter * kThreads * kPerThread / 4;
    while (pipeline->Stats().events_submitted < mark &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(pipeline->SetWorkerCount(0).ok());
    EXPECT_TRUE(pipeline->SetWorkerCount(2).ok());
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(pipeline->Flush().ok());

  const obs::Snapshot snap = obs::GlobalSnapshot();
  EXPECT_EQ(snap.counters.at("countlib_pipeline_events_dropped_total"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("countlib_pipeline_unaccounted_events"),
                   0.0);
  EXPECT_EQ(snap.counters.at("countlib_pipeline_events_submitted_total"),
            kThreads * kPerThread);
  EXPECT_EQ(snap.counters.at("countlib_pipeline_events_applied_total"),
            kThreads * kPerThread);
  // And the whole snapshot serializes.
  EXPECT_FALSE(obs::ToPrometheusText(snap).empty());
}

TEST(PipelineObsTest, CounterAndHistogramRecordPathsAreAllocFree) {
  obs::Counter counter;
  obs::Histogram histogram;
  counter.Add(1);        // warm the thread stripe
  histogram.Record(1);   // warm nothing (preallocated), but be symmetric
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 100000; ++i) {
    counter.Add(1);
    histogram.Record(i % 100000);
  }
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(PipelineObsTest, InstrumentedTrySubmitIsAllocFree) {
  // The full TrySubmit path — stamping included — must never
  // heap-allocate, accepted or rejected.
  auto store = MakeStore();
  PipelineOptions options;
  options.num_producers = 1;
  options.queue_capacity = 1024;
  options.enable_metrics = true;
  auto pipeline = IngestPipeline::Make(store.get(), options).ValueOrDie();
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());  // no worker threads
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  // Warm thread-locals AND both outcomes: fill the ring so the first
  // rejection happens here (the preallocated pending Status is a lazily
  // constructed function-local static).
  for (uint64_t i = 0; i < 1025; ++i) (void)slot.TrySubmit(0, 1);
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 2000; ++i) {
    // Beyond capacity the ring rejects: both the accept path (push +
    // stamp) and the preallocated kPending reject path are measured.
    (void)slot.TrySubmit(i % 53, 1);
  }
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  ASSERT_TRUE(pipeline->SetWorkerCount(1).ok());
  ASSERT_TRUE(pipeline->Flush().ok());
}

double ThreadCpuSeconds() {
  struct timespec ts;
  EXPECT_EQ(clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// This thread's CPU time to submit `events` into a paused pipeline in
// 512-event frames (EventClient's default; the server submits each frame
// whole) and apply them in Drain's final sweep, into a 1-shard
// kSampling-16 store. One thread does both halves, so no scheduler step
// sits inside the measurement.
double ReplayCpuSeconds(const std::vector<analytics::KeyWeight>& events,
                        bool enable_metrics) {
  constexpr size_t kFrame = 512;
  auto store = analytics::ShardedCounterStore::Make(
                   1, CounterKind::kSampling, 16, events.size(), /*seed=*/7)
                   .ValueOrDie();
  PipelineOptions options;
  options.num_producers = 1;
  options.queue_capacity = events.size();  // the ring holds the replay
  options.max_batch = 2048;
  options.enable_metrics = enable_metrics;
  auto pipeline = IngestPipeline::Make(store.get(), options).ValueOrDie();
  EXPECT_TRUE(pipeline->SetWorkerCount(0).ok());
  auto slot = pipeline->AcquireProducerSlot().ValueOrDie();
  bool ok = true;
  const double start = ThreadCpuSeconds();
  for (size_t i = 0; i < events.size(); i += kFrame) {
    const size_t n = std::min(kFrame, events.size() - i);
    ok &= slot.SubmitBatch(events.data() + i, n).ok();
  }
  ok &= pipeline->Drain().ok();
  const double cpu = ThreadCpuSeconds() - start;
  EXPECT_TRUE(ok);
  EXPECT_EQ(pipeline->Stats().events_applied, events.size());
  return cpu;
}

TEST(PipelineObsTest, InstrumentationCostsUnderFivePercentCpuPerEvent) {
  if (!kOptimizedBuild) {
    GTEST_SKIP() << "the CPU cost bound holds only in optimized, "
                    "unsanitized builds";
  }
  // 2^18 Zipf(1.0) events over 10^4 keys, replayed with metrics off and on
  // in pairs whose order alternates, so drift hits both sides. Thread CPU
  // time, not wall time: a descheduled thread is not charged.
  const auto trace =
      stream::Trace::GenerateZipf(10000, 1.0, uint64_t{1} << 18, 4242)
          .ValueOrDie();
  std::vector<analytics::KeyWeight> events;
  events.reserve(trace.num_events());
  for (const stream::KeyEvent& e : trace.events()) {
    events.push_back(analytics::KeyWeight{e.key, e.weight});
  }
  constexpr int kPairs = 21;
  std::vector<double> ratios;
  ratios.reserve(kPairs);
  for (int p = 0; p < kPairs; ++p) {
    double off = 0;
    double on = 0;
    if (p % 2 == 0) {
      off = ReplayCpuSeconds(events, false);
      on = ReplayCpuSeconds(events, true);
    } else {
      on = ReplayCpuSeconds(events, true);
      off = ReplayCpuSeconds(events, false);
    }
    ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[kPairs / 2];
  std::printf("metrics on/off CPU ratio over %d pairs: median %.4f, min "
              "%.4f, max %.4f\n",
              kPairs, median, ratios.front(), ratios.back());
  EXPECT_LT(median, 1.05);
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
