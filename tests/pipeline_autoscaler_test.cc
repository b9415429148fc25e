// Tests for the queue-depth autoscaler: config validation, the
// grow-under-burst / shrink-when-idle policy driving SetWorkerCount with
// hysteresis and cooldown, zero lost events while the pool churns, and
// clean shutdown ordering against a draining pipeline.

#include "pipeline/autoscaler.h"

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
using std::chrono::steady_clock;

std::unique_ptr<analytics::ShardedCounterStore> MakeExactStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

TEST(AutoscalerTest, MakeValidatesConfig) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  EXPECT_TRUE(Autoscaler::Make(nullptr, AutoscalerConfig{})
                  .status()
                  .IsInvalidArgument());

  AutoscalerConfig config;
  config.min_workers = 0;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  config = AutoscalerConfig{};
  config.min_workers = 3;
  config.max_workers = 2;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  config = AutoscalerConfig{};
  config.max_workers = 300;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  config = AutoscalerConfig{};
  config.scale_up_queue_depth = 100;
  config.scale_down_queue_depth = 100;  // must be strictly below
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  // An unreachable floor: SetWorkerCount clamps to the pipeline's worker
  // ceiling (4 producer slots here), so min_workers = 5 could never be
  // honored and the control loop would churn futile resizes forever.
  config = AutoscalerConfig{};
  config.min_workers = 5;
  config.max_workers = 8;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  // A zero up-threshold votes "grow" on an empty pipeline every sample.
  config = AutoscalerConfig{};
  config.scale_up_queue_depth = 0;
  config.scale_down_queue_depth = 0;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  config = AutoscalerConfig{};
  config.sample_interval = milliseconds(0);
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  config = AutoscalerConfig{};
  config.scale_up_samples = 0;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  config = AutoscalerConfig{};
  config.shrink_step = 0;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  // max_workers == 0 resolves to the pipeline's ceiling: 4 producer slots
  // over an 8-lane store.
  auto scaler = Autoscaler::Make(pipeline.get(), AutoscalerConfig{}).ValueOrDie();
  EXPECT_EQ(scaler->max_workers(), 4u);
  scaler->Stop();
  ASSERT_TRUE(pipeline->Drain().ok());
}

// A writer whose batches take a millisecond, so backlog stays queued.
class SlowWriter final : public analytics::CounterWriter {
 public:
  explicit SlowWriter(analytics::CounterWriter* inner) : inner_(inner) {}
  uint64_t num_lanes() const override { return inner_->num_lanes(); }
  Status IncrementBatch(uint64_t lane, const analytics::KeyWeight* updates,
                        size_t n) override {
    std::this_thread::sleep_for(milliseconds(1));
    return inner_->IncrementBatch(lane, updates, n);
  }

 private:
  analytics::CounterWriter* inner_;
};

std::unique_ptr<analytics::ShardedCounterStore> MakeTwoLaneStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/2, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

// Worker w writes store lane w, so a store with fewer lanes than producer
// slots caps the pool below the slot count.
TEST(AutoscalerTest, CeilingIsTheStoreLaneCount) {
  auto store = MakeTwoLaneStore();
  PipelineOptions opt;
  opt.num_producers = 8;
  opt.num_workers = 8;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  EXPECT_EQ(pipeline->max_workers(), 2u);
  EXPECT_EQ(pipeline->num_workers(), 2u);
  ASSERT_TRUE(pipeline->SetWorkerCount(8).ok());
  EXPECT_EQ(pipeline->num_workers(), 2u);

  AutoscalerConfig config;
  config.min_workers = 3;
  EXPECT_TRUE(Autoscaler::Make(pipeline.get(), config)
                  .status()
                  .IsInvalidArgument());

  auto scaler = Autoscaler::Make(pipeline.get(), AutoscalerConfig{}).ValueOrDie();
  EXPECT_EQ(scaler->max_workers(), 2u);
  scaler->Stop();

  // An explicit ceiling above the store's is clamped to it.
  config = AutoscalerConfig{};
  config.max_workers = 8;
  scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();
  EXPECT_EQ(scaler->max_workers(), 2u);
  scaler->Stop();
  ASSERT_TRUE(pipeline->Drain().ok());
}

// Once the pool sits at the lane ceiling, a backlog that persists must not
// keep issuing resizes that SetWorkerCount clamps to a no-op.
TEST(AutoscalerTest, SustainedBacklogOverFewLanesScalesUpOnce) {
  auto store = MakeTwoLaneStore();
  SlowWriter slow(store.get());
  PipelineOptions opt;
  opt.num_producers = 8;
  opt.num_workers = 1;
  opt.queue_capacity = 256;
  opt.max_batch = 16;
  auto pipeline = IngestPipeline::Make(&slow, opt).ValueOrDie();

  AutoscalerConfig config;
  config.sample_interval = milliseconds(5);
  config.cooldown = milliseconds(0);
  config.scale_up_queue_depth = 64;
  config.scale_up_samples = 1;
  config.scale_down_queue_depth = 0;
  auto scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();

  // Fill every ring and keep them full for a while.
  const auto until = steady_clock::now() + milliseconds(300);
  uint64_t key = 0;
  while (steady_clock::now() < until) {
    for (uint64_t p = 0; p < opt.num_producers; ++p) {
      const Status st = pipeline->TrySubmit(p, key++ % 64, 1);
      ASSERT_TRUE(st.ok() || st.IsPending());
    }
  }
  scaler->Stop();
  const AutoscalerStats as = scaler->Stats();
  EXPECT_GT(as.samples, 10u);
  EXPECT_LE(as.scale_ups, 1u);
  EXPECT_EQ(as.resize_errors, 0u);
  EXPECT_EQ(pipeline->num_workers(), 2u);
  ASSERT_TRUE(pipeline->Drain().ok());
}

TEST(AutoscalerTest, StopIsIdempotentAndSafeAfterDrain) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  AutoscalerConfig config;
  config.sample_interval = milliseconds(5);
  auto scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();

  // Draining the pipeline under a live autoscaler: SetWorkerCount starts
  // reporting kFailedPrecondition, the control loop retires itself, and
  // Stop must still join cleanly (twice).
  ASSERT_TRUE(pipeline->Drain().ok());
  std::this_thread::sleep_for(milliseconds(30));
  scaler->Stop();
  scaler->Stop();
  EXPECT_EQ(scaler->Stats().resize_errors, 0u);
}

// Regression test for the stop signal's EventCount migration: the control
// loop parks for a whole sample_interval between ticks, so Stop must wake
// it via the eventcount rather than waiting the interval out. With a 10s
// interval, a Stop that loses the flag/notify race (flag stored after the
// epoch bump, or the park not observing the notify) blows the bound by
// two orders of magnitude.
TEST(AutoscalerTest, StopInterruptsALongSampleParkPromptly) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();
  AutoscalerConfig config;
  config.sample_interval = std::chrono::seconds(10);
  auto scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();

  // Give the control loop a moment to reach its park.
  std::this_thread::sleep_for(milliseconds(50));
  const auto t0 = steady_clock::now();
  scaler->Stop();
  const auto elapsed = steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  ASSERT_TRUE(pipeline->Drain().ok());
}

// The policy acceptance test: a burst of producer traffic must grow the
// pool above its floor, a quiet period must shrink it back, and the churn
// must lose zero events. Thresholds are sized so the verdicts are forced,
// not scheduling luck: producers outrun the deliberately small max_batch,
// so queue depth pins at ring capacity during the burst and at ~0 after.
TEST(AutoscalerTest, GrowsUnderBurstShrinksWhenIdleLosesNothing) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 4;
  opt.num_workers = 1;
  opt.queue_capacity = 1024;
  opt.max_batch = 16;  // slow drain: backlog builds under the burst
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  AutoscalerConfig config;
  config.min_workers = 1;
  config.max_workers = 4;
  config.sample_interval = milliseconds(5);
  config.cooldown = milliseconds(20);
  config.scale_up_queue_depth = 512;
  config.scale_up_samples = 1;
  config.scale_down_queue_depth = 64;
  config.scale_down_samples = 3;
  auto scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();

  // Burst: four producers blast blocking Submits until the pool has grown
  // (or a generous deadline passes — the assertion below catches failure).
  std::atomic<bool> stop_producing{false};
  std::atomic<uint64_t> total_weight{0};
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      while (!stop_producing.load(std::memory_order_acquire)) {
        ASSERT_TRUE(pipeline->Submit(p, /*key=*/p, /*weight=*/1).ok());
        total_weight.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  uint64_t peak_workers = 1;
  const auto grow_deadline = steady_clock::now() + std::chrono::seconds(20);
  while (steady_clock::now() < grow_deadline) {
    peak_workers = std::max(peak_workers, pipeline->num_workers());
    if (peak_workers > 1) break;
    std::this_thread::sleep_for(milliseconds(5));
  }
  stop_producing.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();
  EXPECT_GT(peak_workers, 1u) << "burst never grew the pool";

  // Quiet period: the backlog drains, idle passes accumulate, and the
  // pool must walk back down to min_workers.
  const auto shrink_deadline = steady_clock::now() + std::chrono::seconds(20);
  while (pipeline->num_workers() > config.min_workers &&
         steady_clock::now() < shrink_deadline) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(pipeline->num_workers(), config.min_workers)
      << "quiet period never shrank the pool";

  scaler->Stop();
  const AutoscalerStats as = scaler->Stats();
  EXPECT_GE(as.scale_ups, 1u);
  EXPECT_GE(as.scale_downs, 1u);
  EXPECT_GT(as.samples, 0u);

  // Zero lost events across all the churn.
  ASSERT_TRUE(pipeline->Flush().ok());
  ASSERT_TRUE(pipeline->Drain().ok());
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.events_submitted, total_weight.load());
  EXPECT_EQ(stats.events_applied, total_weight.load());
  EXPECT_EQ(stats.events_dropped, 0u);
  double store_total = 0;
  for (uint64_t k = 0; k < 4; ++k) {
    store_total += store->Estimate(k).ValueOrDie();
  }
  EXPECT_EQ(store_total, static_cast<double>(total_weight.load()));
}

// Regression: growing from a paused pipeline (0 workers) must not compute
// a 0*2 = 0 target and spin forever — the min_workers floor un-pauses it
// and the backlog gets applied.
TEST(AutoscalerTest, UnpausesAPausedPipelineUnderBacklog) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 1;
  opt.queue_capacity = 512;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(pipeline->TrySubmit(i % 2, /*key=*/3, /*weight=*/1).ok());
  }

  AutoscalerConfig config;
  config.sample_interval = milliseconds(5);
  config.cooldown = milliseconds(0);
  config.scale_up_queue_depth = 200;
  config.scale_up_samples = 1;
  config.scale_down_queue_depth = 10;
  config.scale_down_samples = 1000000;  // shrink is not under test here
  auto scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();

  const auto deadline = steady_clock::now() + std::chrono::seconds(10);
  while (pipeline->num_workers() == 0 && steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_GE(pipeline->num_workers(), 1u) << "backlog never un-paused the pool";
  ASSERT_TRUE(pipeline->Flush().ok());
  EXPECT_EQ(store->Estimate(3).ValueOrDie(), 400.0);
  scaler->Stop();
  ASSERT_TRUE(pipeline->Drain().ok());
}

// Hysteresis: with scale_up_samples > 1 a single deep sample must not
// resize. A paused pipeline holds the backlog perfectly still, so exactly
// the vote-streak logic is under test, no scheduling noise.
TEST(AutoscalerTest, HysteresisRequiresConsecutiveVotes) {
  auto store = MakeExactStore();
  PipelineOptions opt;
  opt.num_producers = 2;
  opt.num_workers = 1;
  opt.queue_capacity = 256;
  auto pipeline = IngestPipeline::Make(store.get(), opt).ValueOrDie();

  // A backlog right at the up threshold, frozen by pausing the pipeline.
  ASSERT_TRUE(pipeline->SetWorkerCount(0).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pipeline->TrySubmit(0, /*key=*/1, 1).ok());
  }

  AutoscalerConfig config;
  config.min_workers = 1;
  config.max_workers = 2;
  config.sample_interval = milliseconds(5);
  config.cooldown = milliseconds(0);
  config.scale_up_queue_depth = 100;   // every sample votes up...
  config.scale_up_samples = 1000000;   // ...but the streak can never complete
  config.scale_down_queue_depth = 10;
  auto scaler = Autoscaler::Make(pipeline.get(), config).ValueOrDie();

  std::this_thread::sleep_for(milliseconds(150));
  scaler->Stop();
  const AutoscalerStats as = scaler->Stats();
  EXPECT_GT(as.samples, 0u);
  EXPECT_EQ(as.scale_ups, 0u);       // hysteresis held the resize back
  EXPECT_EQ(as.last_queue_depth, 200u);
  ASSERT_TRUE(pipeline->Drain().ok());
  EXPECT_EQ(pipeline->Stats().events_applied, 200u);
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
