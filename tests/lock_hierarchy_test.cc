// Runtime companion to tools/locktree.py: exercises the documented lock
// hierarchy's cross-class edges concurrently, in the documented order,
// so the TSAN CI lane (which includes this suite) would observe any
// lock-order inversion the static analyzer misses as a real deadlock or
// race. The cases cover exactly what the static engine cannot fully see
// (docs/concurrency.md "Known limits"):
//
//   Registry::mu_ (60) -> nothing in the store: the sharded store's gauge
//     std::function callbacks run under the registry lock and must only
//     read relaxed mirrors, never freeze or park;
//   IngestPipeline::workers_mu_ (10) -> nothing: SetWorkerCount's pause
//     joins retiring workers under it, and no worker, Stats() reader or
//     lease submitter takes it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"

namespace countlib {
namespace {

std::unique_ptr<analytics::ShardedCounterStore> MakeStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

// Registry (60) -> store gauges: snapshots run the store's gauge callbacks
// under the registry mutex while lane writers apply batches and a TopK
// reader freezes the shards. The callbacks read relaxed per-shard mirrors
// and take nothing from the store, so a snapshot never waits on a freeze;
// TSAN checks the mirror reads against the writers.
TEST(LockHierarchyTest, RegistrySnapshotVsShardWriters) {
  auto store = MakeStore();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (uint64_t lane = 0; lane < 2; ++lane) {
    writers.emplace_back([&, lane] {
      uint64_t key = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const analytics::KeyWeight kw{key++ % 64, 1};
        ASSERT_TRUE(store->IncrementBatch(lane, &kw, 1).ok());
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(store->TopK(8).ok());
      std::this_thread::yield();
    }
  });
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Snapshot snap = obs::Registry::Default().TakeSnapshot();
      (void)snap;
      std::this_thread::yield();
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  reader.join();
  snapshotter.join();

  EXPECT_GT(store->NumKeys(), 0u);
}

// workers_mu_ (10) alone: pauses hold it across their worker joins while
// Stats() readers fold the striped counters without any pipeline mutex
// and a lease submitter runs the lock-free fast path.
TEST(LockHierarchyTest, ElasticPauseResumeVsStatsReaders) {
  auto store = MakeStore();
  pipeline::PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 2;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();

  std::atomic<bool> stop{false};
  std::thread pauser([&] {
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(pipe->SetWorkerCount(n++ % 2 == 0 ? 0 : 2).ok());
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pipeline::PipelineStats s = pipe->Stats();
      (void)s;
      std::this_thread::yield();
    }
  });
  std::thread submitter([&] {
    pipeline::ProducerSlot slot = pipe->AcquireProducerSlot().ValueOrDie();
    uint64_t key = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status st = slot.TrySubmit(key++ % 16, 1);
      ASSERT_TRUE(st.ok() || st.IsPending());
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  pauser.join();
  reader.join();
  submitter.join();

  ASSERT_TRUE(pipe->Drain().ok());
}

}  // namespace
}  // namespace countlib
