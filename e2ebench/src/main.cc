// e2ebench: loopback end-to-end benchmark of the serving path.
//
//   e2ebench --workload zipf-hot|uniform-wide|mixed-rw --seed N
//            --seconds S --trace 0|1 [--slowdown_ns X] [--spans_out FILE]
//
// One process hosts the system under test (ShardedCounterStore +
// IngestPipeline + EventServer) and the load generator (EventClient
// connections over loopback plus a scheduled reader). --trace 0 measures
// the end-to-end metrics; --trace 1 records spans and runs the isolation
// stages for the per-layer metrics. Every run checks the system's outputs
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. README.md documents every workload and metric.

#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/params.h"
#include "live.h"
#include "stages.h"
#include "sut.h"
#include "util/logging.h"

namespace e2ebench {
namespace {

using countlib::CounterKind;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double slowdown_ns = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--slowdown_ns") {
      a->slowdown_ns = std::strtod(v, nullptr);
    } else if (flag == "--spans_out") {
      a->spans_out = v;
    } else {
      std::fprintf(stderr, "e2ebench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void PrintEnvironment(const Args& a) {
  utsname u{};
  uname(&u);
  const char* commit = std::getenv("E2EBENCH_GIT_COMMIT");
  std::printf("# env nproc=%ld cpu=\"%s\" kernel=%s build=%s commit=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), u.release,
              E2EBENCH_BUILD_TYPE, commit != nullptr ? commit : "unknown");
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d"
              " slowdown_ns=%g\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, a.slowdown_ns);
}

/// Everything the correctness gate found; each violation is one failed op.
struct Verdict {
  uint64_t violations = 0;
  uint64_t keys_checked = 0;
  uint64_t events_submitted = 0;
  uint64_t events_lost_or_shed = 0;
  countlib::net::ClientStats clients;  ///< summed over connections
  countlib::net::ServerStats server;
  countlib::pipeline::PipelineStats pipeline;
  uint64_t distinct_keys = 0;
  uint64_t total_state_bits = 0;
  double index_bits_per_key = 0;

  void Fail(const char* what, double got, double want) {
    ++violations;
    if (violations <= 10) {
      std::printf("# VIOLATION %s: got %.17g want %.17g\n", what, got, want);
    }
  }
};

/// Settles the books (closes the clients, stops the server, drains the
/// pipeline) and checks the run's outputs against ground truth. `full`
/// also checks the merged snapshot's key set.
Verdict Verify(const WorkloadSpec& spec, const Inputs& in, System* sys,
               std::vector<Conn>* conns, bool full) {
  Verdict v;
  for (Conn& c : *conns) {
    if (!c.client->Close().ok()) v.Fail("client close", 0, 1);
    const countlib::net::ClientStats s = c.client->Stats();
    v.clients.events_submitted += s.events_submitted;
    v.clients.events_delivered += s.events_delivered;
    v.clients.events_shed += s.events_shed;
    v.clients.events_lost_unacked += s.events_lost_unacked;
    v.clients.events_pending += s.events_pending;
    v.clients.bytes_tx += s.bytes_tx;
    v.clients.frames_tx += s.frames_tx;
    v.clients.credit_stalls += s.credit_stalls;
    v.clients.reconnects += s.reconnects;
  }
  const countlib::net::ClientStats& cs = v.clients;
  v.events_submitted = cs.events_submitted;
  v.events_lost_or_shed = cs.events_shed + cs.events_lost_unacked;
  if (cs.events_submitted !=
      cs.events_delivered + cs.events_shed + cs.events_lost_unacked) {
    v.Fail("client books submitted == delivered+shed+lost",
           static_cast<double>(cs.events_submitted),
           static_cast<double>(cs.events_delivered + cs.events_shed +
                               cs.events_lost_unacked));
  }
  if (cs.events_lost_unacked != 0) {
    v.Fail("lost_unacked", static_cast<double>(cs.events_lost_unacked), 0);
  }
  if (cs.events_pending != 0) {
    v.Fail("pending", static_cast<double>(cs.events_pending), 0);
  }
  if (!sys->Stop().ok()) v.Fail("server stop + pipeline drain", 0, 1);
  v.server = sys->server()->Stats();
  v.pipeline = sys->pipeline()->Stats();
  if (v.pipeline.events_applied != v.server.events_delivered) {
    v.Fail("pipeline events_applied == server delivered",
           static_cast<double>(v.pipeline.events_applied),
           static_cast<double>(v.server.events_delivered));
  }
  if (v.server.events_delivered != cs.events_delivered) {
    v.Fail("server delivered == client delivered",
           static_cast<double>(v.server.events_delivered),
           static_cast<double>(cs.events_delivered));
  }

  // Ground truth per Zipf rank: warm-up (each connection sends every key
  // once) plus each connection's cyclic replay of its own trace.
  std::vector<uint64_t> truth(spec.num_keys, 0);
  for (size_t c = 0; c < conns->size(); ++c) {
    const Conn& conn = (*conns)[c];
    const std::vector<uint32_t>& ranks = in.conn_ranks[c];
    if (conn.warmup_sent == spec.num_keys) {
      for (uint64_t& t : truth) ++t;
    } else if (conn.warmup_sent != 0) {
      v.Fail("partial warm-up", static_cast<double>(conn.warmup_sent),
             static_cast<double>(spec.num_keys));
    }
    const uint64_t full = conn.sent / ranks.size();
    const uint64_t rem = conn.sent % ranks.size();
    for (uint64_t i = 0; i < ranks.size(); ++i) {
      truth[ranks[i]] += full + (i < rem ? 1 : 0);
    }
  }

  uint64_t truth_keys = 0;
  for (uint64_t t : truth) truth_keys += t > 0 ? 1 : 0;
  v.distinct_keys = truth_keys;
  v.total_state_bits = sys->store()->TotalStateBits();
  const bool exact = spec.kind == CounterKind::kExact;

  // The full check merges every shard (as costly as a TopK on wide
  // stores); otherwise the audited keys are read through Estimate.
  std::unique_ptr<countlib::analytics::CounterStore> snap;
  if (full || exact) {
    auto snap_or = sys->store()->Snapshot();
    if (!snap_or.ok()) {
      v.Fail("snapshot", 0, 1);
      return v;
    }
    snap = std::make_unique<countlib::analytics::CounterStore>(
        std::move(snap_or).ValueOrDie());
    v.index_bits_per_key = snap->IndexBitsPerKey();
    if (truth_keys != snap->num_keys()) {
      v.Fail("distinct keys", static_cast<double>(snap->num_keys()),
             static_cast<double>(truth_keys));
    }
  }

  // Morris: audit a hash-selected 1/256 of the keys. An estimate of a
  // count N has standard deviation MorrisRelativeStddev(a)·sqrt(N(N-1))
  // (Var = aN(N-1)/2), and it moves in steps of one level, (1+a)^X = aN^+1
  // at level X. At small N the error is a count of missed level
  // increments, whose tail is Poisson rather than normal (at N = 17, 3
  // misses are 10 standard deviations but occur once in ~8000 keys). So
  // each key may miss by six standard deviations plus six level steps.
  // The estimator is unbiased, so the audited keys' errors must also sum
  // to within six times the sum of their standard deviations (plus 1 for
  // rounding when every count is tiny): a bias too small for one key to
  // show accumulates there. The bound is the one for fully correlated
  // errors, because merge-on-read reuses its merge coins from key to key:
  // over 2^16 keys at N = 42 the mean error of one store ranged from -0.19
  // to +0.24 across store seeds, 60 times the standard error that
  // independent errors would have.
  double a = 0, rel_sd = 0;
  if (!exact) {
    a = countlib::MorrisForStateBits(spec.state_bits, kNMax).ValueOrDie().a;
    rel_sd = countlib::MorrisRelativeStddev(a);
  }
  double err_sum = 0, sd_sum = 0;
  for (uint64_t r = 0; r < spec.num_keys; ++r) {
    const uint64_t key = KeyOfRank(r);
    if (!exact && (key & 0xFF) != 0) continue;
    if (truth[r] == 0) continue;
    ++v.keys_checked;
    const auto est =
        snap != nullptr ? snap->Estimate(key) : sys->store()->Estimate(key);
    if (!est.ok()) {
      v.Fail("estimate of a submitted key", 0, static_cast<double>(truth[r]));
      continue;
    }
    const double n = static_cast<double>(truth[r]);
    const double err = est.ValueOrDie() - n;
    const double sd = rel_sd * std::sqrt(n * (n - 1));
    const double tol = exact ? 0.0 : 6.0 * sd + 6.0 * (a * n + 1);
    if (std::fabs(err) > tol) {
      v.Fail(exact ? "exact count" : "audited Morris estimate",
             est.ValueOrDie(), n);
    }
    err_sum += err;
    sd_sum += sd;
  }
  if (!exact && std::fabs(err_sum) > 6.0 * sd_sum + 1) {
    v.Fail("audited Morris error sum", err_sum, 0);
  }
  return v;
}

/// The highest of p50/p90/p99 with at least ten samples beyond it.
const char* SupportedPercentile(const std::vector<double>& v) {
  if (SamplesBeyond(v, 0.99) >= 10) return "p99";
  if (SamplesBeyond(v, 0.90) >= 10) return "p90";
  return "p50";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double PerMillion(uint64_t count, uint64_t events) {
  return events == 0 ? 0.0 : 1e6 * static_cast<double>(count) /
                                 static_cast<double>(events);
}

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

/// Starts the system and connects (and warms) the writers; returns the
/// set-up time in seconds.
double SetUp(const WorkloadSpec& spec, const Args& args,
             const SystemOptions& opt, std::unique_ptr<System>* sys,
             std::vector<Conn>* conns) {
  const uint64_t t0 = NowNs();
  *sys = System::Start(spec, args.seed, opt).ValueOrDie();
  COUNTLIB_CHECK_OK(ConnectAll(**sys, conns));
  if (spec.warmup) COUNTLIB_CHECK_OK(Warmup(spec, conns));
  return static_cast<double>(NowNs() - t0) / 1e9;
}

struct Round {
  double setup_s = 0;
  LiveResult live;
  double mem_bytes_per_key = 0;
  Verdict verdict;
};

/// One measured round on a fresh system: set up, run, verify, tear down.
Round RunRound(const WorkloadSpec& spec, const Inputs& in, const Args& args,
               double seconds, const SystemOptions& opt, bool full_verify) {
  Round round;
  malloc_trim(0);
  const uint64_t rss0 = RssBytes();
  std::unique_ptr<System> sys;
  std::vector<Conn> conns;
  round.setup_s = SetUp(spec, args, opt, &sys, &conns);
  round.live = RunLive(spec, in, sys.get(), &conns, seconds, nullptr);
  const uint64_t rss_end = RssBytes();
  round.verdict = Verify(spec, in, sys.get(), &conns, full_verify);
  round.mem_bytes_per_key =
      static_cast<double>(rss_end - std::min(rss_end, rss0)) /
      static_cast<double>(std::max<uint64_t>(round.verdict.distinct_keys, 1));
  conns.clear();
  sys.reset();
  return round;
}

/// The scheduled reader's validity: reads achieved against the schedule,
/// and how late scheduled operations started.
void PrintReaderSchedule(const WorkloadSpec& spec, uint64_t reads,
                         double wall_s, const std::vector<double>& lateness_us) {
  const double scheduled = spec.estimate_hz + spec.topk_hz;
  if (scheduled == 0) return;
  const double achieved = static_cast<double>(reads) / wall_s;
  std::printf("# reader scheduled=%.0f reads/s achieved=%.1f reads/s (%.4f)"
              " lateness_p50=%.1fus lateness_p99=%.1fus\n",
              scheduled, achieved, achieved / scheduled,
              Percentile(lateness_us, 0.5), Percentile(lateness_us, 0.99));
}

/// The open-loop writers' validity: events sent against the offered rate,
/// and the write-ack latency from each batch's due time.
void PrintWriterSchedule(const WorkloadSpec& spec, uint64_t sent,
                         double wall_s, const std::vector<double>& ack_us) {
  if (spec.offered_eps == 0) return;
  const double achieved = static_cast<double>(sent) / wall_s;
  std::printf("# writers offered=%.0f ev/s achieved=%.0f ev/s (%.4f)"
              " ack_p50=%.1fus ack_p99=%.1fus\n",
              spec.offered_eps, achieved, achieved / spec.offered_eps,
              Percentile(ack_us, 0.5), Percentile(ack_us, 0.99));
}

/// --trace 0: the end-to-end metrics. The run is split into rounds, each
/// on a freshly set-up system, and every figure is a median over all
/// rounds' windows, so one unlucky system instance (thread placement,
/// table layout) cannot move it far.
int RunEndToEnd(const WorkloadSpec& spec, const Inputs& inputs,
                const Args& args, const SystemOptions& opt) {
  uint64_t attempted = 0, failed = 0, reads = 0, sent = 0;
  uint64_t keys_checked = 0, not_found = 0;
  double wall_s = 0;
  std::vector<double> setup_s, mem_per_key, window_eps, window_cpu,
      lateness_us, ack_us;
  for (int r = 0; r < spec.rounds; ++r) {
    const Round round = RunRound(spec, inputs, args, args.seconds / spec.rounds,
                                 opt, r + 1 == spec.rounds);
    const LiveResult& live = round.live;
    const Verdict& v = round.verdict;
    attempted += v.events_submitted + live.reads_issued;
    failed += v.events_lost_or_shed + live.write_errors + live.read_errors +
              v.violations;
    setup_s.push_back(round.setup_s);
    mem_per_key.push_back(round.mem_bytes_per_key);
    Append(&window_eps, live.window_eps);
    Append(&window_cpu, live.window_cpu_ns);
    Append(&lateness_us, live.lateness_us);
    Append(&ack_us, live.ack_us);
    reads += live.reads_issued;
    sent += live.events_sent;
    wall_s += live.wall_s;
    keys_checked += v.keys_checked;
    not_found += live.reads_not_found;
  }
  std::printf("# samples rounds=%d windows=%zu setups=%zu\n", spec.rounds,
              window_eps.size(), setup_s.size());
  PrintWriterSchedule(spec, sent, wall_s, ack_us);
  PrintReaderSchedule(spec, reads, wall_s, lateness_us);
  std::printf("# correctness keys_checked=%llu reads_not_found=%llu"
              " failed_op_ratio=%.6g\n",
              static_cast<unsigned long long>(keys_checked),
              static_cast<unsigned long long>(not_found),
              static_cast<double>(failed) /
                  static_cast<double>(std::max<uint64_t>(attempted, 1)));
  const std::vector<Metric> metrics = {
      {"ingest_eps", Median(window_eps), "1/s"},
      {"cpu_ns_per_event", Median(window_cpu), "ns"},
      // Only the first round starts from a heap no earlier system used:
      // later rounds reuse memory the allocator kept, and read low.
      {"mem_bytes_per_key", mem_per_key.front(), "B"},
      {"setup_s", Median(setup_s), "s"},
  };
  PrintResult(failed == 0, std::max<uint64_t>(attempted, 1), failed, metrics);
  return failed == 0 ? 0 : 1;
}

/// --trace 1: the per-layer metrics. One system: an untraced half (whose
/// latencies and CPU per event are the untraced reference), the unloaded
/// latency probes, a traced half, then the isolation stages on the
/// workload's own inputs.
int RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
              const Args& args, SystemOptions opt) {
  opt.record_events_per_lane = uint64_t{1} << 20;
  std::unique_ptr<System> sys;
  std::vector<Conn> conns;
  SetUp(spec, args, opt, &sys, &conns);
  SpanLog spans;
  const LiveResult plain =
      RunLive(spec, inputs, sys.get(), &conns, args.seconds / 2, nullptr);
  const ProbeResult probe = RunProbes(spec, inputs, sys.get(), &conns);

  // Per-thread CPU over the traced half: the pipeline's workers, the
  // server's accept and connection threads (every other thread alive now
  // except this one), and the generator threads RunLive reports.
  const std::vector<int>& workers = sys->worker_tids();
  std::vector<int> server;
  for (int tid : ListThreads()) {
    if (tid != CurrentTid() &&
        std::find(workers.begin(), workers.end(), tid) == workers.end()) {
      server.push_back(tid);
    }
  }
  const auto cpu_of = [](const std::vector<int>& tids) {
    uint64_t sum = 0;
    for (int tid : tids) sum += ThreadCpuNsOf(tid);
    return sum;
  };
  const uint64_t workers0 = cpu_of(workers), server0 = cpu_of(server);
  const uint64_t main0 = ThreadCpuNs();
  sys->recorder()->Arm();
  const LiveResult traced =
      RunLive(spec, inputs, sys.get(), &conns, args.seconds / 2, &spans);
  const uint64_t main_cpu = ThreadCpuNs() - main0;
  const uint64_t workers_cpu = cpu_of(workers) - workers0;
  const uint64_t server_cpu = cpu_of(server) - server0;

  const Verdict v = Verify(spec, inputs, sys.get(), &conns, true);
  const std::unique_ptr<RecordingWriter> recorded = sys->TakeRecorder();
  sys.reset();
  conns.clear();
  malloc_trim(0);
  const StageCosts st = RunStages(spec, inputs, args.seed, args.slowdown_ns,
                                  *recorded, &spans);
  const uint64_t attempted = v.events_submitted + plain.reads_issued +
                             traced.reads_issued + probe.ops + st.stage_events;
  const uint64_t failed = v.events_lost_or_shed + plain.write_errors +
                          traced.write_errors + plain.read_errors +
                          traced.read_errors + probe.errors + v.violations +
                          st.errors;

  // Untraced latencies: writes from the open-loop writers where the
  // workload has them, else from the unloaded probe; reads from the live
  // reader where the workload has one, else from the probe.
  const std::vector<double>& ack_us =
      spec.offered_eps > 0 ? plain.ack_us : probe.ack_us;
  std::vector<double> read_us = plain.read_point_us,
                      topk_ms = plain.read_topk_ms;
  Append(&read_us, probe.read_point_us);
  Append(&topk_ms, probe.read_topk_ms);
  std::vector<double> lateness = plain.lateness_us;
  Append(&lateness, traced.lateness_us);

  const std::vector<Span> all = spans.All();
  const SpanTotals client_submit = SumSpans(all, "client.submit");
  const double ev = static_cast<double>(std::max<uint64_t>(traced.events_applied, 1));
  const auto per_event = [ev](uint64_t ns) { return static_cast<double>(ns) / ev; };
  // Attribution of the traced half's process CPU per event. Thread
  // classes are measured live; the stages split out the pure work of the
  // pipeline (ring push, drain) and of the store (apply). What the stages
  // do not explain, mostly waiting (spinning, parking, contention) on the
  // worker threads, is the residual.
  const double total = per_event(traced.process_cpu_ns);
  const double conn_threads =
      per_event(traced.writer_cpu_ns) + per_event(server_cpu);
  const double net_layer = conn_threads - st.pipeline_submit_ns_per_event;
  const double pipe_layer =
      st.pipeline_submit_ns_per_event + st.pipeline_drain_ns_per_event;
  const double store_layer = st.apply_ns_per_event;
  const double read_layer = per_event(traced.reader_cpu_ns + main_cpu);
  const double residual =
      total - net_layer - pipe_layer - store_layer - read_layer;
  const double cpu_plain = Median(plain.window_cpu_ns);
  const double cpu_traced = Median(traced.window_cpu_ns);
  const uint64_t applied = v.pipeline.events_applied;
  const double keys =
      static_cast<double>(std::max<uint64_t>(v.distinct_keys, 1));
  const double live_wall_ns = (plain.wall_s + traced.wall_s) * 1e9;

  std::printf("# layer-share of %.1f ns CPU per event (traced half): net %.1f%%"
              "  pipeline %.1f%%  store+core %.1f%%  reads %.1f%%"
              "  residual %.1f%%\n",
              total, 100 * net_layer / total, 100 * pipe_layer / total,
              100 * store_layer / total, 100 * read_layer / total,
              100 * residual / total);
  std::printf("# threads ns/event: clients %.1f  server %.1f  workers %.1f"
              "  reader+main %.1f\n",
              per_event(traced.writer_cpu_ns), per_event(server_cpu),
              per_event(workers_cpu), read_layer);
  std::printf("# samples ack=%zu (%s) read_point=%zu (%s) read_topk=%zu (%s)"
              " stage_events=%llu replay_updates=%llu estimate=%llu"
              " topk=%llu\n",
              ack_us.size(), SupportedPercentile(ack_us), read_us.size(),
              SupportedPercentile(read_us), topk_ms.size(),
              SupportedPercentile(topk_ms),
              static_cast<unsigned long long>(st.stage_events),
              static_cast<unsigned long long>(st.replay_updates),
              static_cast<unsigned long long>(st.estimate_samples),
              static_cast<unsigned long long>(st.topk_samples));
  PrintWriterSchedule(spec, plain.events_sent, plain.wall_s, plain.ack_us);
  PrintReaderSchedule(spec, plain.reads_issued + traced.reads_issued,
                      plain.wall_s + traced.wall_s, lateness);
  std::printf("# correctness keys_checked=%llu violations=%llu"
              " stage_errors=%llu failed_op_ratio=%.6g\n",
              static_cast<unsigned long long>(v.keys_checked),
              static_cast<unsigned long long>(v.violations),
              static_cast<unsigned long long>(st.errors),
              static_cast<double>(failed) /
                  static_cast<double>(std::max<uint64_t>(attempted, 1)));
  if (!args.spans_out.empty()) {
    if (spans.WriteCsv(args.spans_out)) {
      std::printf("# spans written to %s (%zu spans)\n",
                  args.spans_out.c_str(), all.size());
    } else {
      std::printf("# could not write spans to %s\n", args.spans_out.c_str());
    }
  }

  const auto ratio = [](uint64_t num, uint64_t den) {
    return static_cast<double>(num) /
           static_cast<double>(std::max<uint64_t>(den, 1));
  };
  const std::vector<Metric> metrics = {
      {"net.encode_ns_per_event", st.encode_ns_per_event, "ns"},
      {"net.decode_ns_per_event", st.decode_ns_per_event, "ns"},
      {"net.client_submit_ns_per_event", client_submit.CpuPerEvent(), "ns"},
      {"net.loopback_ns_per_event",
       conn_threads - st.encode_ns_per_event - st.decode_ns_per_event -
           st.pipeline_submit_ns_per_event,
       "ns"},
      {"attr.conn_threads_ns_per_event", conn_threads, "ns"},
      {"net.bytes_per_event", ratio(v.clients.bytes_tx, v.events_submitted),
       "B"},
      {"net.credit_stalls_per_mevent",
       PerMillion(v.clients.credit_stalls, v.events_submitted), "count"},
      {"pipeline.submit_ns_per_event", st.pipeline_submit_ns_per_event, "ns"},
      {"pipeline.drain_ns_per_event", st.pipeline_drain_ns_per_event, "ns"},
      {"attr.worker_threads_ns_per_event", per_event(workers_cpu), "ns"},
      {"pipeline.agg_factor", ratio(applied, v.pipeline.updates_applied),
       "ratio"},
      {"pipeline.batch_events_mean",
       ratio(applied, v.pipeline.batches_applied), "count"},
      {"pipeline.pending_ratio",
       ratio(v.pipeline.events_rejected,
             v.pipeline.events_submitted + v.pipeline.events_rejected),
       "ratio"},
      {"pipeline.producer_parks_per_mevent",
       PerMillion(v.pipeline.producer_parks, applied), "count"},
      {"pipeline.worker_wakeups_per_mevent",
       PerMillion(v.pipeline.worker_wakeups, applied), "count"},
      {"store.apply_ns_per_update", st.apply_ns_per_update, "ns"},
      {"store.apply_ns_per_event", st.apply_ns_per_event, "ns"},
      {"store.estimate_us_p50", st.estimate_us_p50, "us"},
      {"store.estimate_us_p99", st.estimate_us_p99, "us"},
      {"store.topk_ms_p50", st.topk_ms_p50, "ms"},
      {"store.read_busy_share",
       (plain.reader_busy_ns + traced.reader_busy_ns) / live_wall_ns, "ratio"},
      {"store.state_bits_per_key",
       static_cast<double>(v.total_state_bits) / keys, "bit"},
      {"store.replication",
       static_cast<double>(v.total_state_bits) / (keys * spec.state_bits),
       "ratio"},
      {"store.index_bits_per_key", v.index_bits_per_key, "bit"},
      {"core.increment_ns", st.increment_ns, "ns"},
      {"core.codec_ns", st.codec_ns, "ns"},
      {"loadgen.lateness_p99_us", Percentile(lateness, 0.99), "us"},
      {"e2e.ack_p50_us", Percentile(ack_us, 0.50), "us"},
      {"e2e.ack_p99_us", Percentile(ack_us, 0.99), "us"},
      {"e2e.read_point_p50_us", Percentile(read_us, 0.50), "us"},
      {"e2e.read_point_p99_us", Percentile(read_us, 0.99), "us"},
      {"e2e.read_topk_p50_ms", Median(topk_ms), "ms"},
      {"e2e.cpu_ns_per_event_traced", total, "ns"},
      {"e2e.residual_ns_per_event", residual, "ns"},
      {"trace.overhead_pct", 100.0 * (cpu_traced - cpu_plain) / cpu_plain,
       "%"},
  };
  PrintResult(failed == 0, std::max<uint64_t>(attempted, 1), failed, metrics);
  return failed == 0 ? 0 : 1;
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  PrintEnvironment(args);
  const Inputs inputs = MakeInputs(*spec, args.seed);
  SystemOptions opt;
  opt.slowdown_ns_per_update = args.slowdown_ns;
  return args.trace == 0 ? RunEndToEnd(*spec, inputs, args, opt)
                         : RunTraced(*spec, inputs, args, opt);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--slowdown_ns X] [--spans_out FILE]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "e2ebench: refusing to measure a build with "
                       "assertions enabled (NDEBUG unset)\n");
  return 2;
#endif
  if (std::strcmp(E2EBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "e2ebench: refusing to report numbers from a %s "
                         "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 E2EBENCH_BUILD_TYPE);
    return 2;
  }
  return e2ebench::Run(args);
}
