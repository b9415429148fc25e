/// \file pipeline_ingest.cpp
/// \brief The §1 analytics system end to end: a pool of transient
/// producer threads leases slots from the `IngestPipeline`'s producer-slot
/// registry and feeds page-visit events through the async batched path
/// into a `ShardedCounterStore`. A fixed pool of `--slots` drain workers,
/// one per shard, applies them — worker w writes shard w, a private
/// bit-packed shard, so the hot path takes no locks (docs/store_api.md). A
/// dashboard then reads the results with one merged `TopK` snapshot call —
/// an exact cross-shard cut per Remark 2.4.
///
/// A lease is the pipeline's only way in, and it suits a pool: there
/// are more worker-pool threads than producer slots, so each thread
/// repeatedly acquires a slot (RAII `ProducerSlot` handle), submits a
/// chunk, and releases — the registry guarantees one holder per slot and
/// hands a released slot out again only after its queue has drained.
///
/// Everything that blocks here blocks on the shared `EventCount` primitive
/// (util/event_count.h): idle drain workers park until a producer pushes,
/// a `Submit` hitting a full ring parks on its ring's not-full eventcount
/// until a drain frees space, and a thread waiting in
/// `AcquireProducerSlot` parks until a release — all the same
/// epoch/waiter-count discipline, so a saturated or idle system costs
/// milliseconds of CPU per second instead of burning cores on sleep-polls.
/// Under *sustained* overload producers keep waiting for ring space, so
/// every submitted visit is counted.
///
/// With `--metrics_out=FILE` the whole run is instrumented through the
/// obs layer (src/obs/README.md): the pipeline registers its
/// counters/gauges/histograms in the process-wide registry beside the
/// store's, which every store registers (the pipeline stamps 1 event in
/// 64 on the steady clock for its submit→apply histogram), and a dump
/// thread rewrites FILE with the Prometheus text
/// exposition every `--metrics_period_ms` (plus a final dump after drain —
/// the one CI validates with tools/promcheck.py). Each dump samples the
/// gauges afresh.
///
/// A bad flag prints its error and exits 1.
///
///   ./build/example_pipeline_ingest [--pages=N] [--visits=N] [--threads=N]
///       [--slots=N] [--metrics_out=FILE] [--metrics_period_ms=N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "stream/trace.h"
#include "util/cli.h"
#include "util/logging.h"

namespace {

/// Reports a bad flag, or the setup step it made fail, as exit code 1.
int Fail(const countlib::Status& st) {
  std::fprintf(stderr, "pipeline_ingest: %s\n", st.ToString().c_str());
  return 1;
}

/// One snapshot, written as Prometheus text to `path`.
void DumpMetrics(const std::string& path) {
  std::ofstream f(path);
  f << countlib::obs::ToPrometheusText(countlib::obs::GlobalSnapshot());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace countlib;

  FlagParser flags(
      "pipeline_ingest: async batched ingestion from leased producer slots");
  flags.AddUint64("pages", 50000, "distinct pages");
  flags.AddUint64("visits", 2000000, "total visit events");
  flags.AddUint64("threads", 8, "transient producer threads sharing the slots");
  flags.AddUint64("slots", 4, "producer slots in the registry");
  flags.AddString("metrics_out", "",
                  "instrument the run and write the Prometheus text dump "
                  "here; empty disables telemetry entirely");
  flags.AddUint64("metrics_period_ms", 500,
                  "rewrite --metrics_out every this many milliseconds "
                  "while the run is live (0 = only the final dump)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    return 0;
  }
  const uint64_t pages = flags.GetUint64("pages");
  const uint64_t visits = flags.GetUint64("visits");
  const uint64_t threads = flags.GetUint64("threads");
  const uint64_t slots = flags.GetUint64("slots");
  const std::string metrics_out = flags.GetString("metrics_out");
  const uint64_t metrics_period_ms = flags.GetUint64("metrics_period_ms");
  const bool metrics = !metrics_out.empty();

  // Zipf page popularity, 16 bits of packed counter state per page, one
  // private shard per producer slot and one drain worker per shard.
  auto made_trace = stream::Trace::GenerateZipf(pages, 1.05, visits, 99);
  if (!made_trace.ok()) return Fail(made_trace.status());
  const stream::Trace trace = std::move(made_trace).ValueOrDie();
  auto made_store = analytics::ShardedCounterStore::Make(
      slots, CounterKind::kSampling, 16, visits, 1);
  if (!made_store.ok()) return Fail(made_store.status());
  auto store = std::move(made_store).ValueOrDie();

  pipeline::PipelineOptions options;
  options.num_producers = slots;
  options.queue_capacity = 8192;
  options.max_batch = 2048;
  options.num_workers = std::min<uint64_t>(slots, 256);  // Make allows 256
  options.enable_metrics = metrics;
  auto made_ingest = pipeline::IngestPipeline::Make(store.get(), options);
  if (!made_ingest.ok()) return Fail(made_ingest.status());
  auto ingest = std::move(made_ingest).ValueOrDie();

  // The telemetry side, entirely optional: the dump thread rewrites the
  // export files while the run is live so an external scraper — or a
  // human with `watch cat` — sees the system move.
  std::atomic<bool> dumping{false};
  std::thread dump_thread;
  if (metrics && metrics_period_ms > 0) {
    dumping.store(true);
    dump_thread = std::thread([&dumping, &metrics_out, metrics_period_ms] {
      while (dumping.load(std::memory_order_acquire)) {
        DumpMetrics(metrics_out);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(metrics_period_ms));
      }
    });
  }

  // The producer pool: each thread claims trace chunks from a shared
  // cursor and, per chunk, leases whichever slot the registry hands it.
  constexpr uint64_t kChunk = 65536;
  std::atomic<uint64_t> next_chunk{0};
  const auto& events = trace.events();
  std::vector<std::thread> pool;
  for (uint64_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      while (true) {
        const uint64_t begin = next_chunk.fetch_add(kChunk);
        if (begin >= events.size()) return;
        const uint64_t end = std::min<uint64_t>(begin + kChunk, events.size());
        auto slot = ingest->AcquireProducerSlot().ValueOrDie();
        for (uint64_t i = begin; i < end; ++i) {
          COUNTLIB_CHECK_OK(slot.Submit(events[i].key, events[i].weight));
        }
        // The handle releases the slot here; queued leftovers are drained
        // before the registry re-issues it.
      }
    });
  }

  for (auto& t : pool) t.join();
  COUNTLIB_CHECK_OK(ingest->Drain());

  // Stop the live rewriter; the final dump waits until after the
  // dashboard's merged TopK read below, so the validated file carries a
  // populated countlib_store_shard_merge_latency_ns histogram alongside
  // the settled must-stay-zero metrics (events_dropped,
  // unaccounted_events) that tools/promcheck.py asserts in CI.
  if (dump_thread.joinable()) {
    dumping.store(false, std::memory_order_release);
    dump_thread.join();
  }

  const pipeline::PipelineStats stats = ingest->Stats();
  std::printf(
      "ingested %llu events (%llu rejected then retried) in %llu batches;\n"
      "pre-aggregation folded them into %llu store updates (%.2f events/update)\n",
      static_cast<unsigned long long>(stats.events_applied),
      static_cast<unsigned long long>(stats.events_rejected),
      static_cast<unsigned long long>(stats.batches_applied),
      static_cast<unsigned long long>(stats.updates_applied),
      static_cast<double>(stats.events_applied) /
          static_cast<double>(stats.updates_applied));
  std::printf("%llu transient threads shared %llu producer slots\n",
              static_cast<unsigned long long>(threads),
              static_cast<unsigned long long>(slots));

  const analytics::StoreStats store_stats = store->Stats();
  std::printf(
      "store: %llu pages at 16 bits/page packed state across %llu private "
      "shards; %llu batch calls carried %llu updates\n",
      static_cast<unsigned long long>(store->NumKeys()),
      static_cast<unsigned long long>(store->num_shards()),
      static_cast<unsigned long long>(store_stats.batch_calls),
      static_cast<unsigned long long>(store_stats.batch_updates));

  // The dashboard read path: one merged snapshot call — an exact
  // cross-shard cut — no per-key round trips.
  auto top = store->TopK(10).ValueOrDie();
  std::printf("\ntop %zu pages by estimated visits:\n", top.size());
  for (const auto& [key, estimate] : top) {
    std::printf("  page %8llu  ~%.0f visits\n",
                static_cast<unsigned long long>(key), estimate);
  }

  if (metrics) {
    DumpMetrics(metrics_out);
    std::printf("metrics: Prometheus text at %s\n", metrics_out.c_str());
  }
  return 0;
}
