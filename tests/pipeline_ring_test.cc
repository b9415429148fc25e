// Unit tests for the SPSC ring buffer behind the ingestion pipeline's
// per-producer queues: capacity rounding, FIFO order, deterministic full /
// empty behavior, wraparound, and a 1-producer/1-consumer stress run.

#include "pipeline/spsc_ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace countlib {
namespace pipeline {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing(1).capacity(), 2u);
  EXPECT_EQ(SpscRing(2).capacity(), 2u);
  EXPECT_EQ(SpscRing(3).capacity(), 4u);
  EXPECT_EQ(SpscRing(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing(1024).capacity(), 1024u);
}

// Direct unit test of the rounding helper, pinning the overflow fix: for
// v > 2^63 the naive `while (p < v) p <<= 1` loop shifts p to zero and
// never terminates; the helper must clamp to 2^63 instead of hanging.
TEST(SpscRingTest, RoundUpPow2HandlesFullRange) {
  constexpr uint64_t kMax = uint64_t{1} << 63;
  EXPECT_EQ(SpscRing::RoundUpPow2(0), 1u);
  EXPECT_EQ(SpscRing::RoundUpPow2(1), 1u);
  EXPECT_EQ(SpscRing::RoundUpPow2(2), 2u);
  EXPECT_EQ(SpscRing::RoundUpPow2(3), 4u);
  EXPECT_EQ(SpscRing::RoundUpPow2((uint64_t{1} << 40) + 1), uint64_t{1} << 41);
  EXPECT_EQ(SpscRing::RoundUpPow2(kMax - 1), kMax);
  EXPECT_EQ(SpscRing::RoundUpPow2(kMax), kMax);
  // The overflow region: these used to loop forever.
  EXPECT_EQ(SpscRing::RoundUpPow2(kMax + 1), kMax);
  EXPECT_EQ(SpscRing::RoundUpPow2(~uint64_t{0}), kMax);
}

// Full/empty boundary semantics: the monotonic-index design (`tail - head
// > mask_` means full) admits exactly capacity() elements, NOT the
// capacity-1 of the classic modular-compare ring.
TEST(SpscRingTest, AdmitsExactlyCapacityElements) {
  SpscRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < ring.capacity(); ++i) {
    ASSERT_TRUE(ring.TryPush(Event{i, 1})) << "push " << i;
  }
  EXPECT_EQ(ring.SizeApprox(), ring.capacity());
  EXPECT_FALSE(ring.TryPush(Event{99, 1}));  // element capacity()+1 refused
  // Freeing exactly one admits exactly one more.
  Event one;
  ASSERT_EQ(ring.PopBatch(&one, 1), 1u);
  EXPECT_TRUE(ring.TryPush(Event{8, 1}));
  EXPECT_FALSE(ring.TryPush(Event{100, 1}));
  // Drain completely: all capacity() elements come back in order.
  std::vector<Event> out(ring.capacity());
  EXPECT_EQ(ring.PopBatch(out.data(), out.size()), ring.capacity());
  for (uint64_t i = 0; i < ring.capacity(); ++i) {
    EXPECT_EQ(out[i].key, i + 1);
  }
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// Wraparound across several capacity multiples with the ring held at
// varying fill levels, so head/tail cross the mask boundary in every
// alignment. Weights double-check payload integrity, not just order.
TEST(SpscRingTest, WraparoundPastSeveralCapacityMultiples) {
  SpscRing ring(8);
  const uint64_t cap = ring.capacity();
  uint64_t next_push = 0, next_pop = 0;
  Event out[5];
  // Alternate uneven push/pop bursts; > 20 capacity multiples total.
  while (next_push < 20 * cap + 3) {
    const uint64_t burst = (next_push % 7) + 1;
    for (uint64_t i = 0; i < burst; ++i) {
      if (!ring.TryPush(Event{next_push, next_push * 3 + 1})) break;
      ++next_push;
    }
    const uint64_t got = ring.PopBatch(out, (next_pop % 5) + 1);
    for (uint64_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i].key, next_pop);
      ASSERT_EQ(out[i].weight, next_pop * 3 + 1);
      ++next_pop;
    }
  }
  while (next_pop < next_push) {
    const uint64_t got = ring.PopBatch(out, 5);
    ASSERT_GT(got, 0u);
    for (uint64_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i].key, next_pop);
      ASSERT_EQ(out[i].weight, next_pop * 3 + 1);
      ++next_pop;
    }
  }
  EXPECT_GE(next_push, 20 * cap);
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// A batch push enqueues the prefix that fits, in order, with one tail
// publish.
TEST(SpscRingTest, TryPushBatchEnqueuesThePrefixThatFits) {
  SpscRing ring(8);
  const auto make = [](uint64_t i) { return Event{100 + i, i + 1}; };
  EXPECT_EQ(ring.TryPushBatch(5, make), 5u);
  EXPECT_EQ(ring.TryPushBatch(5, make), 3u);  // 3 of 5 fit
  EXPECT_EQ(ring.TryPushBatch(5, make), 0u);  // full
  EXPECT_EQ(ring.TryPushBatch(0, make), 0u);
  Event out[8];
  ASSERT_EQ(ring.PopBatch(out, 8), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t j = i < 5 ? i : i - 5;  // second batch restarts at 0
    EXPECT_EQ(out[i].key, 100 + j) << i;
    EXPECT_EQ(out[i].weight, j + 1) << i;
  }
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

TEST(SpscRingTest, PushPopPreservesFifoOrder) {
  SpscRing ring(8);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryPush(Event{i, i + 100}));
  }
  EXPECT_EQ(ring.SizeApprox(), 5u);
  std::vector<Event> out(8);
  EXPECT_EQ(ring.PopBatch(out.data(), out.size()), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].key, i);
    EXPECT_EQ(out[i].weight, i + 100);
  }
  EXPECT_EQ(ring.SizeApprox(), 0u);
  EXPECT_EQ(ring.PopBatch(out.data(), out.size()), 0u);
}

TEST(SpscRingTest, FullRingRejectsPushUntilPopped) {
  SpscRing ring(4);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPush(Event{i, 1}));
  }
  EXPECT_FALSE(ring.TryPush(Event{99, 1}));  // deterministic backpressure
  Event one;
  ASSERT_EQ(ring.PopBatch(&one, 1), 1u);
  EXPECT_EQ(one.key, 0u);
  EXPECT_TRUE(ring.TryPush(Event{99, 1}));
  EXPECT_FALSE(ring.TryPush(Event{100, 1}));
}

TEST(SpscRingTest, WraparoundKeepsOrderAcrossManyCycles) {
  SpscRing ring(4);
  uint64_t next_push = 0, next_pop = 0;
  Event out[3];
  for (int cycle = 0; cycle < 1000; ++cycle) {
    while (ring.TryPush(Event{next_push, 1})) ++next_push;
    uint64_t got;
    while ((got = ring.PopBatch(out, 3)) > 0) {
      for (uint64_t i = 0; i < got; ++i) {
        ASSERT_EQ(out[i].key, next_pop++);
      }
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_GE(next_push, 4000u);
}

TEST(SpscRingTest, ConcurrentProducerConsumerLosesNothing) {
  SpscRing ring(64);
  constexpr uint64_t kEvents = 200000;
  uint64_t consumed_weight = 0;
  uint64_t consumed_events = 0;
  std::thread consumer([&] {
    std::vector<Event> out(64);
    uint64_t expected_key = 0;
    while (consumed_events < kEvents) {
      const uint64_t got = ring.PopBatch(out.data(), out.size());
      for (uint64_t i = 0; i < got; ++i) {
        ASSERT_EQ(out[i].key, expected_key++);  // strict FIFO
        consumed_weight += out[i].weight;
      }
      consumed_events += got;
      if (got == 0) std::this_thread::yield();
    }
  });
  uint64_t produced_weight = 0;
  for (uint64_t i = 0; i < kEvents; ++i) {
    const Event e{i, (i % 7) + 1};
    while (!ring.TryPush(e)) std::this_thread::yield();
    produced_weight += e.weight;
  }
  consumer.join();
  EXPECT_EQ(consumed_events, kEvents);
  EXPECT_EQ(consumed_weight, produced_weight);
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

}  // namespace
}  // namespace pipeline
}  // namespace countlib
