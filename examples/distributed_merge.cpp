/// \file distributed_merge.cpp
/// \brief Mergeability in action (Remark 2.4): several ingest shards count
/// the same keys independently; a coordinator merges per-key counters and
/// gets estimates as if one counter had seen the whole stream.
///
///   ./build/examples/distributed_merge [--shards=N]

#include <cstdio>
#include <utility>

#include "analytics/sharded_counter_store.h"
#include "core/merge.h"
#include "core/nelson_yu.h"
#include "stream/trace.h"
#include "util/cli.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace countlib;

  FlagParser flags("distributed_merge: shard-and-merge counting demo");
  flags.AddUint64("shards", 8, "ingest shards");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "distributed_merge: %s\n", parsed.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    return 0;
  }
  const uint64_t num_shards = flags.GetUint64("shards");

  // --- Low level: merge two Nelson-Yu counters directly. ---
  Accuracy acc{0.1, 0.01, uint64_t{1} << 26};
  auto east = NelsonYuCounter::FromAccuracy(acc, 11).ValueOrDie();
  auto west = NelsonYuCounter::FromAccuracy(acc, 12).ValueOrDie();
  east.IncrementMany(300000);
  west.IncrementMany(700000);
  auto global = Merge(east, west).ValueOrDie();
  std::printf("east=%.0f west=%.0f merged=%.0f (true 1000000, %+.2f%%)\n",
              east.Estimate(), west.Estimate(), global.Estimate(),
              100.0 * (global.Estimate() / 1e6 - 1.0));

  // --- Higher level: a sharded per-key store, 17-bit sampling counters. ---
  auto made_store = analytics::ShardedCounterStore::Make(
      num_shards, CounterKind::kSampling, 17, uint64_t{1} << 20, 7);
  if (!made_store.ok()) {
    std::fprintf(stderr, "distributed_merge: bad --shards: %s\n",
                 made_store.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(made_store).ValueOrDie();

  // Each shard ingests its own slice of a Zipf stream (same key space).
  auto trace = stream::Trace::GenerateZipf(256, 1.0, 400000, 5).ValueOrDie();
  const auto truth = trace.ExactCounts();
  uint64_t shard = 0;
  for (const auto& event : trace.events()) {
    const analytics::KeyWeight kw{event.key, event.weight};
    COUNTLIB_CHECK_OK(store->IncrementBatch(shard, &kw, 1));
    shard = (shard + 1) % num_shards;
  }

  std::printf("\nper-key merged estimates across %llu shards:\n",
              static_cast<unsigned long long>(num_shards));
  std::printf("%-6s %10s %12s %10s\n", "key", "true", "merged_est", "error");
  for (uint64_t key = 0; key < 5; ++key) {
    const double est = store->Estimate(key).ValueOrDie();
    const double tru = static_cast<double>(truth.at(key));
    std::printf("%-6llu %10.0f %12.0f %+9.2f%%\n",
                static_cast<unsigned long long>(key), tru, est,
                100.0 * (est / tru - 1.0));
  }
  std::printf("\nmerging loses nothing in (eps, delta): the merged counter's "
              "distribution equals a single counter over the union stream "
              "(Remark 2.4; verified distributionally in the test suite)\n");
  return 0;
}
