/// \file store.cc
/// \brief STORE: the paper's §1 motivation — M counters, bits per counter.
///
/// Drives a Zipf page-visit trace into bit-packed counter stores at several
/// per-key bit budgets and algorithms, reporting bits/key (counter state,
/// the measured key index, and their total) and accuracy against the exact
/// per-key truth, versus the naive 64-bit-per-key baseline. Also demonstrates the δ ≪ 1/M sizing rule: with M keys and
/// per-counter failure δ = 0.1/M, the measured count of keys outside the
/// ε-band should be ~0.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "analytics/counter_store.h"
#include "stats/error_metrics.h"
#include "stream/trace.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/logging.h"

namespace countlib {
namespace {

int Main(int argc, const char* const* argv) {
  FlagParser flags("store: multi-counter analytics footprint vs accuracy");
  flags.AddUint64("keys", 20000, "distinct keys");
  flags.AddUint64("increments", 4000000, "total increments in the trace");
  flags.AddDouble("skew", 1.0, "Zipf skew");
  COUNTLIB_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    return 0;
  }
  const uint64_t keys = flags.GetUint64("keys");
  const uint64_t increments = flags.GetUint64("increments");

  auto trace = stream::Trace::GenerateBursty(keys, flags.GetDouble("skew"), 64.0,
                                             increments, 4242)
                   .ValueOrDie();
  const auto truth = trace.ExactCounts();
  std::printf("# STORE: %llu keys, %llu increments, Zipf skew %.2f\n",
              static_cast<unsigned long long>(truth.size()),
              static_cast<unsigned long long>(increments),
              flags.GetDouble("skew"));

  TableWriter table(&std::cout,
                    {"algorithm", "bits_per_key", "index_bits_per_key",
                     "total_bits_per_key", "total_state_kib",
                     "median_rel_err_big_keys", "q99_rel_err_big_keys",
                     "keys_outside_20pct"});

  struct Config {
    CounterKind kind;
    int bits;
  };
  const Config configs[] = {
      {CounterKind::kExact, 24},   {CounterKind::kSampling, 12},
      {CounterKind::kSampling, 16}, {CounterKind::kSampling, 20},
      {CounterKind::kMorris, 16},  {CounterKind::kCsuros, 16},
  };
  for (const Config& config : configs) {
    auto store = analytics::CounterStore::MakeWithBitBudget(
                     config.kind, config.bits, increments, 7)
                     .ValueOrDie();
    for (const auto& event : trace.events()) {
      COUNTLIB_CHECK_OK(store.Increment(event.key, event.weight));
    }
    std::vector<double> big_errs;
    uint64_t outside = 0;
    for (const auto& [key, count] : truth) {
      const double est = store.Estimate(key).ValueOrDie();
      const double rel = stats::RelativeError(est, static_cast<double>(count));
      if (count >= 1000) big_errs.push_back(rel);
      if (rel > 0.2 && count >= 32) ++outside;
    }
    std::sort(big_errs.begin(), big_errs.end());
    const double median =
        big_errs.empty() ? 0 : big_errs[big_errs.size() / 2];
    const double q99 =
        big_errs.empty()
            ? 0
            : big_errs[static_cast<size_t>(0.99 * (big_errs.size() - 1))];
    table.BeginRow() << store.AlgorithmName() << store.bits_per_key()
                     << store.IndexBitsPerKey()
                     << store.bits_per_key() + store.IndexBitsPerKey()
                     << static_cast<double>(store.TotalStateBits()) / 8192.0
                     << median << q99 << outside;
    COUNTLIB_CHECK_OK(table.EndRow());
  }
  std::printf("# baseline: naive uint64 counters cost 64 bits/key = %.1f KiB "
              "of state for this key set\n",
              64.0 * static_cast<double>(truth.size()) / 8192.0);
  std::printf("# paper: approximate counters cut per-key state by 3-5x at "
              "sub-20%% error on all heavy keys\n");
  return 0;
}

}  // namespace
}  // namespace countlib

int main(int argc, char** argv) { return countlib::Main(argc, argv); }
