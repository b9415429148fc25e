/// \file accuracy_vs_space.cpp
/// \brief Explore the space/accuracy frontier interactively: squeeze each
/// algorithm into a hard bit budget (the Figure-1 exercise) and watch the
/// error respond. Useful for choosing per-counter budgets in a real
/// deployment.
///
///   ./build/examples/accuracy_vs_space [--n=999999] [--trials=400]

#include <cstdio>

#include "core/counter_factory.h"
#include "stats/summary.h"
#include "stream/stream_runner.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace countlib;

  FlagParser flags("accuracy_vs_space: error vs bit budget per algorithm");
  flags.AddUint64("n", 999999, "count per trial");
  flags.AddUint64("trials", 400, "trials per cell");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "accuracy_vs_space: %s\n", parsed.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    return 0;
  }
  const uint64_t n = flags.GetUint64("n");
  const uint64_t trials = flags.GetUint64("trials");
  if (n < 2) {
    // Every bit-budget calibration needs n_max >= 2.
    std::fprintf(stderr, "accuracy_vs_space: --n must be >= 2\n");
    return 1;
  }

  std::printf("relative-error stddev at n=%llu over %llu trials\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(trials));
  std::printf("%8s | %12s %12s %12s\n", "bits", "morris", "sampling", "csuros");

  for (int bits : {10, 12, 14, 17, 20, 24}) {
    std::printf("%8d |", bits);
    for (CounterKind kind : {CounterKind::kMorris, CounterKind::kSampling,
                             CounterKind::kCsuros}) {
      stream::CounterFactory factory = [kind, bits, n](uint64_t trial) {
        return MakeCounterForBits(kind, bits, n,
                                  1 + trial * 0x9E3779B97F4A7C15ull);
      };
      stream::CountSampler sampler = [n](uint64_t) { return n; };
      auto report_or = stream::RunTrials(factory, sampler, trials);
      if (!report_or.ok()) {
        std::printf(" %12s", "infeasible");
        continue;
      }
      stats::StreamingSummary errs;
      for (double e : report_or->signed_errors) errs.Add(e);
      std::printf(" %11.3f%%", 100.0 * errs.stddev());
    }
    std::printf("\n");
  }
  std::printf("\neach extra bit of budget roughly halves the Morris base "
              "parameter / doubles the sampling budget, cutting the error "
              "stddev by ~1/sqrt(2) — until the register is large enough to "
              "count exactly\n");
  return 0;
}
