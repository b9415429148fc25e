/// \file analytics_loadgen.cpp
/// \brief Remote-producer load generator for `example_analytics_server`:
/// N connections (each an `EventClient`, src/net/client.h) replay a
/// partitioned Zipf trace over TCP, honoring the server's credit grants,
/// then settle their books with a clean close.
///
/// The exit code is the verdict CI's loopback smoke relies on: after all
/// connections close, the aggregate ledgers must satisfy
///
///     submitted == delivered + shed + lost_unacked,  pending == 0
///
/// and a fully healthy run (no kill) additionally shows lost_unacked == 0
/// and shed == 0 (the server never sheds an accepted event). Any imbalance,
/// any connection that fails, or any bad flag exits 1.
///
/// With `--metrics_out=FILE` the settled client-side ledgers are exported
/// as a Prometheus text dump (`countlib_loadgen_*`) so CI's promcheck can
/// assert the producer half of the smoke's books the same way it asserts
/// the server half — the server's own `--metrics_out` dump is where the
/// store-side read path (`countlib_store_shard_merge_latency_ns`) shows
/// up.
///
///   ./build/example_analytics_loadgen --port=N [--host=ADDR]
///       [--connections=N] [--events=N] [--keys=N] [--skew=F] [--window=N]
///       [--expect_lossless] [--metrics_out=FILE]
///
/// Each client sends frames of the size the server advertises in its hello
/// ack (half the server's ring).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "stream/trace.h"
#include "util/cli.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace countlib;  // NOLINT(build/namespaces)

  FlagParser flags("TCP load generator for example_analytics_server.");
  flags.AddString("host", "127.0.0.1", "server address");
  flags.AddUint64("port", 7700, "server port");
  flags.AddUint64("connections", 4, "concurrent client connections");
  flags.AddUint64("events", 1000000, "total events across all connections");
  flags.AddUint64("keys", 10000, "distinct keys in the trace");
  flags.AddDouble("skew", 1.0, "Zipf skew");
  flags.AddUint64("window", 0, "requested credit window (0 = server default)");
  flags.AddBool("expect_lossless", true,
                "fail if any event lands in the lost_unacked or shed "
                "ledger");
  flags.AddString("metrics_out", "",
                  "write the settled countlib_loadgen_* ledgers as a "
                  "Prometheus text dump here (optional)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "analytics_loadgen: %s\n", parsed.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    return 0;
  }

  // Bad flags are reported errors (exit 1), like a failed connection;
  // --keys=0 is refused by the trace generator.
  const uint64_t connections = flags.GetUint64("connections");
  const uint64_t total_events = flags.GetUint64("events");
  if (flags.GetUint64("port") > 65535) {
    std::fprintf(stderr, "analytics_loadgen: --port must be in [0, 65535]\n");
    return 1;
  }
  if (connections == 0) {
    std::fprintf(stderr, "analytics_loadgen: --connections must be >= 1\n");
    return 1;
  }

  auto generated = stream::Trace::GenerateZipf(flags.GetUint64("keys"),
                                               flags.GetDouble("skew"),
                                               total_events, /*seed=*/77);
  if (!generated.ok()) {
    std::fprintf(stderr, "analytics_loadgen: bad trace flags: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  const stream::Trace trace = std::move(generated).ValueOrDie();
  const auto& events = trace.events();

  net::ClientOptions copt;
  copt.host = flags.GetString("host");
  copt.port = static_cast<uint16_t>(flags.GetUint64("port"));
  copt.requested_window = static_cast<uint32_t>(flags.GetUint64("window"));

  // Each connection replays a round-robin partition of the trace, so every
  // client sees the same key skew. A connection that fails (bad options,
  // no server, reconnect budget spent) stops and reports its error.
  std::vector<net::ClientStats> per_conn(connections);
  std::vector<Status> errors(connections);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto connected = net::EventClient::Connect(copt);
      if (!connected.ok()) {
        errors[c] = connected.status();
        return;
      }
      auto client = std::move(connected).ValueOrDie();
      Status st;
      for (uint64_t i = c; i < events.size() && st.ok(); i += connections) {
        st = client->Submit(events[i].key, events[i].weight);
      }
      const Status closed = client->Close();
      errors[c] = st.ok() ? closed : st;
      per_conn[c] = client->Stats();
    });
  }
  for (auto& t : threads) t.join();
  bool failed = false;
  for (uint64_t c = 0; c < connections; ++c) {
    if (errors[c].ok()) continue;
    std::fprintf(stderr, "analytics_loadgen: connection %llu failed: %s\n",
                 static_cast<unsigned long long>(c),
                 errors[c].ToString().c_str());
    failed = true;
  }
  if (failed) return 1;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  net::ClientStats sum;
  for (const auto& s : per_conn) {
    sum.events_submitted += s.events_submitted;
    sum.events_sent += s.events_sent;
    sum.events_delivered += s.events_delivered;
    sum.events_shed += s.events_shed;
    sum.events_lost_unacked += s.events_lost_unacked;
    sum.events_pending += s.events_pending;
    sum.frames_tx += s.frames_tx;
    sum.frames_rx += s.frames_rx;
    sum.bytes_tx += s.bytes_tx;
    sum.bytes_rx += s.bytes_rx;
    sum.credit_stalls += s.credit_stalls;
    sum.reconnects += s.reconnects;
    sum.decode_errors += s.decode_errors;
  }

  std::printf(
      "analytics_loadgen: %llu events over %llu connections in %.2fs "
      "(%.0f events/s)\n",
      static_cast<unsigned long long>(sum.events_submitted),
      static_cast<unsigned long long>(connections), elapsed,
      elapsed > 0 ? static_cast<double>(sum.events_submitted) / elapsed : 0.0);
  std::printf(
      "analytics_loadgen: delivered=%llu shed=%llu lost=%llu pending=%llu "
      "stalls=%llu reconnects=%llu\n",
      static_cast<unsigned long long>(sum.events_delivered),
      static_cast<unsigned long long>(sum.events_shed),
      static_cast<unsigned long long>(sum.events_lost_unacked),
      static_cast<unsigned long long>(sum.events_pending),
      static_cast<unsigned long long>(sum.credit_stalls),
      static_cast<unsigned long long>(sum.reconnects));

  const std::string metrics_out = flags.GetString("metrics_out");
  if (!metrics_out.empty()) {
    // The settled ledgers as Prometheus counters: registered, snapshotted
    // once, and released — the loadgen has no live series to track, so the
    // dump is a one-shot book report promcheck can gate on.
    obs::Counter submitted, delivered, lost, frames_tx, bytes_tx,
        credit_stalls, reconnects;
    submitted.Add(sum.events_submitted);
    delivered.Add(sum.events_delivered);
    lost.Add(sum.events_lost_unacked);
    frames_tx.Add(sum.frames_tx);
    bytes_tx.Add(sum.bytes_tx);
    credit_stalls.Add(sum.credit_stalls);
    reconnects.Add(sum.reconnects);
    obs::Registry& reg = obs::Registry::Default();
    const std::vector<obs::Registration> regs = [&] {
      std::vector<obs::Registration> r;
      r.push_back(reg.RegisterCounter("countlib_loadgen_events_submitted_total",
                                      &submitted));
      r.push_back(reg.RegisterCounter("countlib_loadgen_events_delivered_total",
                                      &delivered));
      r.push_back(
          reg.RegisterCounter("countlib_loadgen_events_lost_total", &lost));
      r.push_back(reg.RegisterCounter("countlib_loadgen_frames_tx_total",
                                      &frames_tx));
      r.push_back(
          reg.RegisterCounter("countlib_loadgen_bytes_tx_total", &bytes_tx));
      r.push_back(reg.RegisterCounter("countlib_loadgen_credit_stalls_total",
                                      &credit_stalls));
      r.push_back(reg.RegisterCounter("countlib_loadgen_reconnects_total",
                                      &reconnects));
      return r;
    }();
    std::ofstream f(metrics_out);
    f << obs::ToPrometheusText(obs::GlobalSnapshot());
    std::printf("analytics_loadgen: Prometheus ledgers at %s\n",
                metrics_out.c_str());
  }

  // The books: every submitted event must be in exactly one ledger.
  if (sum.events_submitted != sum.events_delivered + sum.events_shed +
                                  sum.events_lost_unacked ||
      sum.events_pending != 0) {
    std::printf("analytics_loadgen: BOOKS VIOLATION\n");
    return 1;
  }
  if (flags.GetBool("expect_lossless") &&
      (sum.events_lost_unacked != 0 || sum.events_shed != 0)) {
    std::printf("analytics_loadgen: LOST OR SHED EVENTS on a healthy run\n");
    return 1;
  }
  std::printf("analytics_loadgen: books balance\n");
  return 0;
}
