// The library's headline contract, tested end-to-end: for every counter
// kind and a grid of (ε, δ, N), the observed failure rate of
// P(|N-hat - N| > εN) is statistically consistent with δ. Parameterized
// gtest sweeps (TEST_P) with Wilson lower bounds keep the assertions
// non-flaky.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <tuple>

#include "core/counter_factory.h"
#include "stats/error_metrics.h"
#include "stream/stream_runner.h"

namespace countlib {
namespace {

struct GuaranteeCase {
  CounterKind kind;
  double epsilon;
  double delta;
  uint64_t n;
  uint64_t trials;
};

// gtest embeds the printed parameter in every test's listed name. Without a
// printer it dumps the struct's raw bytes, padding included, and the padding
// holds whatever was on the stack: the listed names then change from one run
// of the binary to the next. Print the fields instead.
void PrintTo(const GuaranteeCase& c, std::ostream* os) {
  *os << CounterKindToString(c.kind) << " eps=" << c.epsilon
      << " delta=" << c.delta << " n=" << c.n << " trials=" << c.trials;
}

std::string CaseName(const testing::TestParamInfo<GuaranteeCase>& info) {
  const GuaranteeCase& c = info.param;
  std::string name = CounterKindToString(c.kind);
  for (char& ch : name) {
    if (ch == '-' || ch == '+') ch = '_';
  }
  name += "_eps" + std::to_string(static_cast<int>(c.epsilon * 1000));
  name += "_delta" + std::to_string(static_cast<int>(-std::log10(c.delta)));
  name += "_n" + std::to_string(c.n);
  return name;
}

class GuaranteeTest : public testing::TestWithParam<GuaranteeCase> {};

TEST_P(GuaranteeTest, FailureRateConsistentWithDelta) {
  const GuaranteeCase& c = GetParam();
  Accuracy acc{c.epsilon, c.delta, c.n * 2};
  auto report =
      stream::RunAccuracyTrials(c.kind, acc, c.n, c.trials, /*seed0=*/0xC0FFEE)
          .ValueOrDie();
  const uint64_t failures = report.CountFailures(c.epsilon);
  EXPECT_TRUE(stats::FailureRateConsistentWith(failures, c.trials, c.delta))
      << failures << " failures in " << c.trials << " trials vs delta " << c.delta;
}

TEST_P(GuaranteeTest, StateStaysWithinProvisionedBits) {
  const GuaranteeCase& c = GetParam();
  Accuracy acc{c.epsilon, c.delta, c.n * 2};
  auto probe = MakeCounter(c.kind, acc, 1).ValueOrDie();
  const int provisioned = probe->StateBits();
  auto report = stream::RunAccuracyTrials(c.kind, acc, c.n,
                                          std::min<uint64_t>(c.trials, 64), 42)
                    .ValueOrDie();
  EXPECT_LE(report.state_bits.max(), provisioned);
}

INSTANTIATE_TEST_SUITE_P(
    AccuracySweep, GuaranteeTest,
    testing::Values(
        // Morris+ (Theorem 1.2).
        GuaranteeCase{CounterKind::kMorrisPlus, 0.1, 0.01, 1u << 20, 400},
        GuaranteeCase{CounterKind::kMorrisPlus, 0.2, 0.05, 1u << 16, 400},
        GuaranteeCase{CounterKind::kMorrisPlus, 0.3, 0.001, 1u << 18, 300},
        // Small-N regime: the deterministic prefix answers exactly.
        GuaranteeCase{CounterKind::kMorrisPlus, 0.1, 0.01, 1000, 200},
        // Nelson-Yu (Theorem 2.1).
        GuaranteeCase{CounterKind::kNelsonYu, 0.1, 0.01, 1u << 20, 400},
        GuaranteeCase{CounterKind::kNelsonYu, 0.2, 0.05, 1u << 16, 400},
        GuaranteeCase{CounterKind::kNelsonYu, 0.3, 0.001, 1u << 18, 300},
        GuaranteeCase{CounterKind::kNelsonYu, 0.1, 0.01, 2000, 200},
        // Sampling counter (the Figure-1 simplified algorithm).
        GuaranteeCase{CounterKind::kSampling, 0.1, 0.01, 1u << 20, 400},
        GuaranteeCase{CounterKind::kSampling, 0.2, 0.05, 1u << 16, 400},
        // Csuros baseline.
        GuaranteeCase{CounterKind::kCsuros, 0.1, 0.01, 1u << 20, 400},
        GuaranteeCase{CounterKind::kCsuros, 0.2, 0.05, 1u << 16, 400},
        // Averaged Morris (the §1.1 space-hungry baseline still meets ε, δ).
        GuaranteeCase{CounterKind::kAveragedMorris, 0.2, 0.05, 1u << 16, 200},
        // Exact counter: trivially zero failures.
        GuaranteeCase{CounterKind::kExact, 0.1, 0.01, 1u << 20, 50}),
    CaseName);

// Signed errors must be centered: a systematic bias beyond a few standard
// errors indicates a broken estimator. (The Nelson-Yu counter is excluded:
// its output is quantized to the (1+ε) grid, which biases any single N by
// design — its guarantee is the ε-band, tested above.)
struct BiasCase {
  CounterKind kind;
  uint64_t n;
};

void PrintTo(const BiasCase& c, std::ostream* os) {
  *os << CounterKindToString(c.kind) << " n=" << c.n;
}

class BiasTest : public testing::TestWithParam<BiasCase> {};

TEST_P(BiasTest, SignedErrorIsCentered) {
  const BiasCase& c = GetParam();
  Accuracy acc{0.1, 0.05, c.n * 2};
  const uint64_t trials = 600;
  auto report =
      stream::RunAccuracyTrials(c.kind, acc, c.n, trials, 0xBEEF).ValueOrDie();
  double mean = 0, var = 0;
  for (double e : report.signed_errors) mean += e;
  mean /= static_cast<double>(trials);
  for (double e : report.signed_errors) var += (e - mean) * (e - mean);
  var /= static_cast<double>(trials - 1);
  const double se = std::sqrt(var / static_cast<double>(trials));
  EXPECT_LE(std::fabs(mean), 6 * se + 1e-9)
      << "mean signed error " << mean << " (se " << se << ")";
}

INSTANTIATE_TEST_SUITE_P(
    BiasSweep, BiasTest,
    testing::Values(BiasCase{CounterKind::kMorris, 1u << 18},
                    BiasCase{CounterKind::kMorrisPlus, 1u << 18},
                    BiasCase{CounterKind::kSampling, 1u << 18},
                    BiasCase{CounterKind::kCsuros, 1u << 18}),
    [](const testing::TestParamInfo<BiasCase>& info) {
      std::string name = CounterKindToString(info.param.kind);
      for (char& ch : name) {
        if (ch == '-' || ch == '+') ch = '_';
      }
      return name;
    });

// Monotone-load property: more increments never shrink the estimate for
// counters with monotone state (all of ours).
TEST(MonotonicityTest, EstimatesAreNondecreasingInN) {
  Accuracy acc{0.1, 0.01, 1u << 22};
  for (CounterKind kind : kAllCounterKinds) {
    auto counter = MakeCounter(kind, acc, 99).ValueOrDie();
    double prev = 0;
    for (int step = 0; step < 40; ++step) {
      counter->IncrementMany(1u << 14);
      const double est = counter->Estimate();
      ASSERT_GE(est, prev) << CounterKindToString(kind) << " step " << step;
      prev = est;
    }
  }
}

}  // namespace
}  // namespace countlib
