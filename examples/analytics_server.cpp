/// \file analytics_server.cpp
/// \brief The §1 analytics system as a *service*: an `EventServer`
/// (src/net/server.h) listens on TCP, leases a pipeline producer slot per
/// connection, and feeds remote page-visit events through the async
/// batched path into a `ShardedCounterStore` — each drain worker owns a
/// private shard (no stripe locks on the write path), and a dashboard
/// thread reads merged cross-shard cuts once a second while the load is
/// live (docs/store_api.md). Point the companion loadgen
/// (`example_analytics_loadgen`) at it for a loopback end-to-end run —
/// that pair is also CI's smoke test for the net subsystem.
///
/// A full ring parks the submitting connection exactly as it parks an
/// in-process producer (pipeline/ingest_pipeline.h); the wire adds
/// credit-based flow control on top, so a saturated pipeline makes remote
/// producers park client-side instead of flooding the socket
/// (docs/net_protocol.md).
///
/// With `--metrics_out=FILE` the pipeline's instruments are turned on too
/// (the server and store always register theirs) and the final
/// Prometheus dump includes the `countlib_net_*` inventory plus the
/// `countlib_store_*` shard metrics — in particular
/// `countlib_store_shard_merge_latency_ns`, fed by the dashboard's
/// merge-on-read snapshots (src/obs/README.md) — CI validates it with
/// tools/promcheck.py.
///
/// A bad flag, including one that makes the store, pipeline or listener
/// refuse to start, prints its error and exits 1.
///
///   ./build/example_analytics_server [--port=N] [--bind=ADDR]
///       [--slots=N] [--queue_capacity=N] [--workers=N] [--shards=N]
///       [--run_seconds=N] [--metrics_out=FILE]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "util/cli.h"
#include "util/logging.h"

namespace {

/// Reports a bad flag, or the setup step it made fail, as exit code 1.
int Fail(const countlib::Status& st) {
  std::fprintf(stderr, "analytics_server: %s\n", st.ToString().c_str());
  return 1;
}

void DumpMetrics(const std::string& path) {
  const countlib::obs::Snapshot snap = countlib::obs::GlobalSnapshot();
  std::ofstream f(path);
  f << countlib::obs::ToPrometheusText(snap);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace countlib;  // NOLINT(build/namespaces)

  FlagParser flags(
      "TCP ingestion server over the async batched pipeline.");
  flags.AddUint64("port", 7700, "listen port (0 = ephemeral, printed)");
  flags.AddString("bind", "127.0.0.1", "bind address");
  flags.AddUint64("slots", 8, "producer slots == max concurrent connections");
  flags.AddUint64("queue_capacity", 4096, "per-slot ring capacity");
  flags.AddUint64("workers", 2, "drain worker threads");
  flags.AddUint64("shards", 0,
                  "private store shards (0 = one per drain worker); worker "
                  "w writes shard w, so fewer shards than --workers is an "
                  "error");
  flags.AddUint64("run_seconds", 30, "serve this long, then drain and exit");
  flags.AddString("metrics_out", "", "final Prometheus dump path (optional)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);
  if (flags.help_requested()) {
    std::printf("%s\n", flags.HelpText().c_str());
    return 0;
  }

  if (flags.GetUint64("port") > 65535) {
    std::fprintf(stderr, "analytics_server: --port must be in [0, 65535]\n");
    return 1;
  }

  const bool metrics = !flags.GetString("metrics_out").empty();
  const uint64_t workers = flags.GetUint64("workers");
  if (workers == 0) {
    std::fprintf(stderr, "analytics_server: --workers must be >= 1\n");
    return 1;
  }
  uint64_t shards = flags.GetUint64("shards");
  if (shards == 0) shards = workers;  // one private shard per drain worker
  auto made_store = analytics::ShardedCounterStore::Make(
      shards, CounterKind::kExact, /*state_bits=*/32, (uint64_t{1} << 32) - 1,
      /*seed=*/1);
  if (!made_store.ok()) return Fail(made_store.status());
  auto store = std::move(made_store).ValueOrDie();

  pipeline::PipelineOptions popt;
  popt.num_producers = flags.GetUint64("slots");
  popt.queue_capacity = flags.GetUint64("queue_capacity");
  popt.num_workers = workers;
  popt.enable_metrics = metrics;
  auto made_pipe = pipeline::IngestPipeline::Make(store.get(), popt);
  if (!made_pipe.ok()) return Fail(made_pipe.status());
  auto pipe = std::move(made_pipe).ValueOrDie();

  net::ServerOptions sopt;
  sopt.bind_address = flags.GetString("bind");
  sopt.port = static_cast<uint16_t>(flags.GetUint64("port"));
  auto made_server = net::EventServer::Make(pipe.get(), sopt);
  if (!made_server.ok()) return Fail(made_server.status());
  auto server = std::move(made_server).ValueOrDie();
  std::printf("analytics_server: listening on %s:%u (%llu slots)\n",
              sopt.bind_address.c_str(), server->port(),
              static_cast<unsigned long long>(popt.num_producers));
  std::fflush(stdout);

  // The dashboard: a merged cross-shard cut once a second while the load
  // is live — the new read path under real ingest, and (under
  // --metrics_out) the feed for countlib_store_shard_merge_latency_ns.
  std::atomic<bool> serving{true};
  std::thread dashboard([&serving, &store] {
    while (serving.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      auto top = store->TopK(5);
      if (!top.ok()) continue;
      double total = 0.0;
      COUNTLIB_CHECK_OK(
          store->ForEach([&total](uint64_t, double est) { total += est; }));
      std::printf("analytics_server: dashboard cut — %llu keys, %.0f total "
                  "weight, top key %llu (~%.0f)\n",
                  static_cast<unsigned long long>(store->NumKeys()), total,
                  top.ValueOrDie().empty()
                      ? 0ull
                      : static_cast<unsigned long long>(
                            top.ValueOrDie().front().key),
                  top.ValueOrDie().empty() ? 0.0
                                           : top.ValueOrDie().front().estimate);
    }
  });

  std::this_thread::sleep_for(
      std::chrono::seconds(flags.GetUint64("run_seconds")));
  serving.store(false, std::memory_order_release);
  dashboard.join();

  COUNTLIB_CHECK_OK(server->Stop());
  const net::ServerStats net_stats = server->Stats();
  COUNTLIB_CHECK_OK(pipe->Drain());
  const pipeline::PipelineStats pipe_stats = pipe->Stats();

  std::printf(
      "analytics_server: %llu conns (%llu refused), %llu frames rx, "
      "%llu events rx, %llu delivered, %llu decode errors, "
      "%llu partial frames, %llu credit stalls\n",
      static_cast<unsigned long long>(net_stats.connections_accepted),
      static_cast<unsigned long long>(net_stats.connections_refused),
      static_cast<unsigned long long>(net_stats.frames_rx),
      static_cast<unsigned long long>(net_stats.events_rx),
      static_cast<unsigned long long>(net_stats.events_delivered),
      static_cast<unsigned long long>(net_stats.decode_errors),
      static_cast<unsigned long long>(net_stats.partial_frames),
      static_cast<unsigned long long>(net_stats.credit_stalls));
  std::printf("analytics_server: pipeline applied %llu events\n",
              static_cast<unsigned long long>(pipe_stats.events_applied));
  const analytics::StoreStats store_stats = store->Stats();
  std::printf(
      "analytics_server: store holds %llu keys across %llu private shards; "
      "%llu merged reads served\n",
      static_cast<unsigned long long>(store->NumKeys()),
      static_cast<unsigned long long>(store->num_shards()),
      static_cast<unsigned long long>(store_stats.merge_reads));

  // Server-side books: an event is delivered only from a received frame,
  // so delivered can never run ahead of rx.
  if (net_stats.events_delivered > net_stats.events_rx) {
    std::printf("analytics_server: BOOKS VIOLATION (delivered > rx)\n");
    return 1;
  }

  if (metrics) DumpMetrics(flags.GetString("metrics_out"));
  return 0;
}
