/// \file web_analytics.cpp
/// \brief The paper's motivating scenario (§1): per-page visit counters for
/// a large site. Millions of counters make bits-per-counter the dominant
/// cost; this example packs approximate counters into a dense bit pool and
/// compares footprint and accuracy against exact 64-bit counters.
///
///   ./build/examples/web_analytics [--pages=N] [--visits=N]

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "analytics/counter_store.h"
#include "stats/error_metrics.h"
#include "stream/trace.h"
#include "util/cli.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace countlib;

  FlagParser flags("web_analytics: per-page visit counting demo");
  flags.AddUint64("pages", 50000, "distinct pages");
  flags.AddUint64("visits", 5000000, "total visits");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "web_analytics: %s\n", parsed.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    return 0;
  }
  const uint64_t pages = flags.GetUint64("pages");
  const uint64_t visits = flags.GetUint64("visits");

  // Page popularity is Zipf; bursts model hot pages getting hammered.
  auto generated = stream::Trace::GenerateBursty(pages, 1.05, 64.0, visits, 99);
  if (!generated.ok()) {
    std::fprintf(stderr, "web_analytics: bad --pages or --visits: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const stream::Trace trace = std::move(generated).ValueOrDie();
  const auto truth = trace.ExactCounts();
  std::printf("simulated %llu visits over %zu distinct pages\n",
              static_cast<unsigned long long>(visits), truth.size());

  // 16 bits of state per page, calibrated for counts up to `visits`.
  auto made_store = analytics::CounterStore::MakeWithBitBudget(
      CounterKind::kSampling, 16, visits, 1);
  if (!made_store.ok()) {
    std::fprintf(stderr, "web_analytics: bad --visits: %s\n",
                 made_store.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(made_store).ValueOrDie();
  for (const auto& event : trace.events()) {
    COUNTLIB_CHECK_OK(store.Increment(event.key, event.weight));
  }

  // Accuracy on the top pages (the ones a dashboard would show).
  std::vector<std::pair<uint64_t, uint64_t>> top(truth.begin(), truth.end());
  std::sort(top.begin(), top.end(),
            [](auto& a, auto& b) { return a.second > b.second; });
  std::printf("\n%-8s %12s %12s %10s\n", "page", "true", "estimate", "error");
  for (size_t i = 0; i < 10 && i < top.size(); ++i) {
    const double est = store.Estimate(top[i].first).ValueOrDie();
    std::printf("page%-4llu %12llu %12.0f %+9.2f%%\n",
                static_cast<unsigned long long>(top[i].first),
                static_cast<unsigned long long>(top[i].second), est,
                100.0 * (est / static_cast<double>(top[i].second) - 1.0));
  }

  const double approx_kib =
      static_cast<double>(store.TotalStateBits()) / 8.0 / 1024.0;
  const double naive_kib = 64.0 * static_cast<double>(truth.size()) / 8.0 / 1024.0;
  std::printf("\ncounter state: %.1f KiB packed (%d bits/page) vs %.1f KiB "
              "for naive uint64 counters — %.1fx smaller\n",
              approx_kib, store.bits_per_key(), naive_kib, naive_kib / approx_kib);
  std::printf("(the key->slot index costs ~%.0f bits/page for either design)\n",
              store.IndexBitsPerKey());
  return 0;
}
