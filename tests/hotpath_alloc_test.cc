// Run-time check of the `// HOTPATH` allocation contract on the write
// path: this binary replaces the global operator new with one that counts
// the calling thread's allocations, and the steady-state calls — a store
// batch over keys that are already indexed, a pipeline batch submit into
// a ring with room, a drain pass over indexed keys, a submit through a
// released lease — must make none. (conclint checks the same contract
// statically, on the tagged functions' own bodies only.) The replacement
// also records the thread's largest request, which bounds what a client's
// handshake allocates.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "analytics/counter_store.h"
#include "analytics/sharded_counter_store.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline/ingest_pipeline.h"

namespace {
thread_local uint64_t tl_allocations = 0;
thread_local std::size_t tl_largest_allocation = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++tl_allocations;
  if (size > tl_largest_allocation) tl_largest_allocation = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// noinline: inlined into a caller, the std::free below meets a pointer from
// a new-expression, which gcc 12 reports as -Wmismatched-new-delete.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace countlib {
namespace {

using analytics::KeyWeight;

std::vector<KeyWeight> Updates(uint64_t keys, uint64_t rounds) {
  std::vector<KeyWeight> updates;
  for (uint64_t r = 0; r < rounds; ++r) {
    for (uint64_t k = 0; k < keys; ++k) {
      updates.push_back(KeyWeight{k * 0x9E3779B97F4A7C15ull, 1 + (k + r) % 3});
    }
  }
  return updates;
}

TEST(HotpathAllocTest, StoreBatchOverIndexedKeysAllocatesNothing) {
  const std::vector<KeyWeight> updates = Updates(5000, 2);
  for (CounterKind kind : {CounterKind::kExact, CounterKind::kMorris,
                           CounterKind::kSampling, CounterKind::kCsuros}) {
    SCOPED_TRACE(CounterKindToString(kind));
    auto store = analytics::CounterStore::MakeWithBitBudget(
                     kind, 16, uint64_t{1} << 20, 3)
                     .ValueOrDie();
    ASSERT_TRUE(store.IncrementBatch(updates.data(), 5000).ok());  // index
    const uint64_t before = tl_allocations;
    ASSERT_TRUE(store.IncrementBatch(updates.data(), updates.size()).ok());
    EXPECT_EQ(tl_allocations - before, 0u);
  }
}

TEST(HotpathAllocTest, ShardedBatchOverIndexedKeysAllocatesNothing) {
  const std::vector<KeyWeight> updates = Updates(5000, 2);
  auto store = analytics::ShardedCounterStore::Make(
                   2, CounterKind::kMorris, 16, uint64_t{1} << 20, 3)
                   .ValueOrDie();
  ASSERT_TRUE(store->IncrementBatch(1, updates.data(), 5000).ok());
  const uint64_t before = tl_allocations;
  ASSERT_TRUE(store->IncrementBatch(1, updates.data(), updates.size()).ok());
  EXPECT_EQ(tl_allocations - before, 0u);
}

TEST(HotpathAllocTest, SubmitBatchIntoARingWithRoomAllocatesNothing) {
  auto store = analytics::ShardedCounterStore::Make(
                   1, CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, 1)
                   .ValueOrDie();
  pipeline::PipelineOptions opt;
  opt.num_producers = 1;
  opt.queue_capacity = 4096;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_TRUE(pipe->SetWorkerCount(0).ok());  // the ring keeps its room
  pipeline::ProducerSlot slot = pipe->AcquireProducerSlot().ValueOrDie();
  const std::vector<KeyWeight> updates = Updates(512, 1);
  const uint64_t before = tl_allocations;
  ASSERT_TRUE(slot.SubmitBatch(updates.data(), updates.size()).ok());
  ASSERT_TRUE(slot.TrySubmitBatch(updates.data(), updates.size()).ok());
  ASSERT_TRUE(slot.Submit(1, 1).ok());
  EXPECT_EQ(tl_allocations - before, 0u);
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(pipe->Stats().events_applied, 2 * updates.size() + 1);
}

// A drain pass — ring pop, fold by key, store apply — over keys already
// indexed allocates nothing: `Drain`'s sweep allocates its scratch once,
// so sweeping 64 full batches makes exactly the allocations of sweeping
// one. Each batch holds 128 distinct keys; a fold that allocated per key
// would add 63 × 128 allocations.
TEST(HotpathAllocTest, DrainPassOverIndexedKeysAllocatesNothing) {
  constexpr uint64_t kBatch = 128;
  constexpr uint64_t kBatches = 64;
  const std::vector<KeyWeight> updates = Updates(kBatch, kBatches);
  auto store = analytics::ShardedCounterStore::Make(
                   1, CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store->IncrementBatch(0, updates.data(), kBatch).ok());
  pipeline::PipelineOptions opt;
  opt.num_producers = 1;
  opt.max_batch = kBatch;
  opt.queue_capacity = kBatch * kBatches;
  // Two paused pipelines over the one store: the backlog waits in the
  // ring, and `Drain`'s sweep on this thread applies it through lane 0.
  const auto drain_allocations = [&](uint64_t batches) {
    auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
    EXPECT_TRUE(pipe->SetWorkerCount(0).ok());
    {
      pipeline::ProducerSlot slot = pipe->AcquireProducerSlot().ValueOrDie();
      EXPECT_TRUE(slot.SubmitBatch(updates.data(), batches * kBatch).ok());
    }
    const uint64_t before = tl_allocations;
    EXPECT_TRUE(pipe->Drain().ok());
    const uint64_t made = tl_allocations - before;
    EXPECT_EQ(pipe->Stats().batches_applied, batches);
    EXPECT_EQ(pipe->Stats().updates_applied, batches * kBatch);
    return made;
  };
  EXPECT_EQ(drain_allocations(kBatches), drain_allocations(1));
}

// A submit through a released handle is refused with a preallocated
// status: after one warm-up call, 100,000 more make no allocation.
TEST(HotpathAllocTest, InvalidSlotRejectsAllocateNothing) {
  auto store = analytics::ShardedCounterStore::Make(
                   1, CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, 1)
                   .ValueOrDie();
  pipeline::PipelineOptions opt;
  opt.num_producers = 1;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  pipeline::ProducerSlot released = pipe->AcquireProducerSlot().ValueOrDie();
  released.Release();
  const auto allocations = [](auto&& rejects) {
    EXPECT_TRUE(rejects(0));
    bool all_rejected = true;
    const uint64_t before = tl_allocations;
    for (uint64_t i = 0; i < 100000; ++i) all_rejected &= rejects(i & 63);
    const uint64_t made = tl_allocations - before;
    EXPECT_TRUE(all_rejected);
    return made;
  };
  EXPECT_EQ(allocations([&](uint64_t key) {
              return released.TrySubmit(key, 1).IsFailedPrecondition();
            }),
            0u);
  EXPECT_EQ(allocations([&](uint64_t key) {
              return released.Submit(key, 1).IsFailedPrecondition();
            }),
            0u);
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(pipe->Stats().events_submitted, 0u);
}

// A client's frame buffer follows the frame the server advertises, half
// its ring: against a default server (a 4096-slot ring, so 2048-event
// frames of 32 KiB) connecting makes no allocation above 64 KiB on the
// connecting thread, and 2 frames + 1 event go out as exactly three event
// frames. The server's own frame buffer lives on its connection thread.
TEST(HotpathAllocTest, ClientFrameBufferFollowsTheAdvertisedFrame) {
  auto store = analytics::ShardedCounterStore::Make(
                   1, CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, 1)
                   .ValueOrDie();
  pipeline::PipelineOptions opt;
  opt.num_producers = 1;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_EQ(pipe->queue_capacity(), 4096u);
  const uint64_t frame = pipe->queue_capacity() / 2;
  auto server =
      net::EventServer::Make(pipe.get(), net::ServerOptions()).ValueOrDie();
  net::ClientOptions copt;
  copt.port = server->port();
  tl_largest_allocation = 0;
  auto client = net::EventClient::Connect(copt).ValueOrDie();
  EXPECT_LE(tl_largest_allocation, std::size_t{64} << 10);
  for (uint64_t i = 0; i < 2 * frame + 1; ++i) {
    ASSERT_TRUE(client->Submit(i % 5, 1).ok());
  }
  ASSERT_TRUE(client->Close().ok());
  const net::ClientStats cs = client->Stats();
  EXPECT_EQ(cs.events_delivered, 2 * frame + 1);
  EXPECT_EQ(cs.frames_tx, 5u);  // hello, 2048, 2048, 1, goodbye
  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(pipe->Stats().events_applied, 2 * frame + 1);
}

}  // namespace
}  // namespace countlib
