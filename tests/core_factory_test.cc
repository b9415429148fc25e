// Tests for the counter factory (uniform construction across kinds).

#include "core/counter_factory.h"

#include <gtest/gtest.h>

#include "stats/error_metrics.h"

namespace countlib {
namespace {

TEST(FactoryTest, KindNamesRoundTrip) {
  for (CounterKind kind : kAllCounterKinds) {
    const char* name = CounterKindToString(kind);
    auto parsed = CounterKindFromString(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(CounterKindFromString("bogus").status().IsInvalidArgument());
}

TEST(FactoryTest, MakeCounterAllKindsCountReasonably) {
  Accuracy acc{0.2, 0.05, 1u << 22};
  const uint64_t n = 200000;
  for (CounterKind kind : kAllCounterKinds) {
    auto counter = MakeCounter(kind, acc, 101).ValueOrDie();
    counter->IncrementMany(n);
    const double rel = stats::RelativeError(counter->Estimate(), n);
    // Loose smoke bound; the tight (ε, δ) sweeps live in
    // integration_guarantees_test.
    EXPECT_LE(rel, 0.5) << CounterKindToString(kind);
    EXPECT_GT(counter->StateBits(), 0) << CounterKindToString(kind);
    EXPECT_FALSE(counter->Name().empty());
  }
}

TEST(FactoryTest, ExactKindIsExact) {
  Accuracy acc{0.1, 0.01, 1u << 20};
  auto counter = MakeCounter(CounterKind::kExact, acc, 1).ValueOrDie();
  counter->IncrementMany(12345);
  EXPECT_DOUBLE_EQ(counter->Estimate(), 12345.0);
}

TEST(FactoryTest, MakeCounterForBitsRespectsBudget) {
  const int bits = 17;
  const uint64_t n_max = 999999;
  for (CounterKind kind : {CounterKind::kExact, CounterKind::kMorris,
                           CounterKind::kSampling, CounterKind::kCsuros}) {
    auto counter = MakeCounterForBits(kind, bits, n_max, 7).ValueOrDie();
    EXPECT_LE(counter->StateBits(), bits) << CounterKindToString(kind);
    counter->IncrementMany(500000);
    // Must track a 20-bit count inside 17 bits of state (except exact,
    // which saturates at 2^17 - 1 by design).
    if (kind != CounterKind::kExact) {
      EXPECT_LE(stats::RelativeError(counter->Estimate(), 500000.0), 0.3)
          << CounterKindToString(kind);
    }
  }
}

TEST(FactoryTest, MakeCounterForBitsUnsupportedKindsFail) {
  EXPECT_TRUE(MakeCounterForBits(CounterKind::kNelsonYu, 17, 1000, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MakeCounterForBits(CounterKind::kAveragedMorris, 17, 1000, 1)
                  .status()
                  .IsInvalidArgument());
  // A supported kind still rejects an n_max below 2, as an error rather
  // than an abort.
  for (uint64_t n_max : {0, 1}) {
    EXPECT_TRUE(MakeCounterForBits(CounterKind::kCsuros, 17, n_max, 1)
                    .status()
                    .IsInvalidArgument())
        << "n_max=" << n_max;
  }
}

TEST(FactoryTest, SeedsChangeTheStream) {
  Accuracy acc{0.1, 0.01, 1u << 24};
  auto a = MakeCounter(CounterKind::kMorris, acc, 1).ValueOrDie();
  auto b = MakeCounter(CounterKind::kMorris, acc, 2).ValueOrDie();
  a->IncrementMany(1u << 22);
  b->IncrementMany(1u << 22);
  // Same distribution but almost surely different realizations.
  EXPECT_NE(a->Estimate(), b->Estimate());
}

}  // namespace
}  // namespace countlib
