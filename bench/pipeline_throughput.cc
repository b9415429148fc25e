/// \file pipeline_throughput.cc
/// \brief PIPELINE: ingest throughput — direct per-event store writes vs
/// the async batched pipeline, plus elastic-scaling, idle-CPU, and
/// backpressure-cost scenarios.
///
/// Replays the same Zipf trace through (a) producer threads writing the
/// `ShardedCounterStore` directly, producer p through lane p, one
/// single-event `IncrementBatch` (a packed-slot deserialize/serialize) per
/// event, and (b) the `IngestPipeline` (lock-free SPSC submit, background
/// workers that pre-aggregate duplicate keys and apply one batch per pass
/// through their own lane). Under Zipfian traffic the batched path does
/// one slot update per *distinct* key per batch, which is where the win
/// comes from even on a single core. Every store is kSampling at 16 bits
/// with one shard per producer (direct) or worker (pipeline).
///
/// Six extra scenarios track the elastic-pipeline work:
///  - **elastic**: replays the trace while `SetWorkerCount` steps the
///    worker pool 1→4→2→4 mid-stream (the resize barrier is on the hot
///    path, so regressions show up as throughput loss).
///  - **idle**: a flushed, quiet pipeline is watched for one second; the
///    CV-parked workers must do near-zero busy passes (asserted) and only
///    a handful of timeout-bounded idle passes — this is the number that
///    collapsed when the yield/sleep poll was replaced by the eventcount.
///  - **backpressure**: tight-loop `TrySubmit` against a 2-entry queue;
///    the rejects/sec rate tracks the cost of the kPending path, and a
///    paused-pipeline phase counts heap allocations across the kPending
///    and invalid-slot reject paths (asserted zero — every rejection
///    Status is preallocated).
///  - **saturated-producer-cpu**: a blocking `Submit` parked on a full
///    ring for one second must cost <5ms of producer-thread CPU (asserted)
///    and land its event promptly once a drain frees space — the
///    producer-side mirror of the idle scenario, measuring the not-full
///    eventcount that replaced the 100µs sleep-poll backoff.
///  - **net**: the socket front-end (src/net/) on loopback — EventClient
///    connections framing the trace over TCP with credit flow control
///    into the same pipeline config, against the in-process Submit
///    ceiling. The gap is the wire tax; the exact-books invariants are
///    asserted and the lost/unaccounted counts judged as must-stay-zero.
///  - **overload**: the shed policy against a paused pipeline. Shed mode
///    blasts a frozen ring and must balance its books exactly —
///    `delivered + shed == submitted`, asserted, with the shed Submit
///    rate showing the bounded-latency drop cost.
///
/// Emits a human table plus one machine-readable JSON document (stdout,
/// and `--json_out=FILE`, default `BENCH_pipeline_throughput.json` in the
/// working directory — run from the repo root for the cross-PR
/// trajectory). JSON schema (stable keys): `bench`, `keys`, `skew`,
/// `configs[] {mode, producers, events, elapsed_s, events_per_sec,
/// agg_factor}`, `elastic {producers, worker_steps[], events, elapsed_s,
/// events_per_sec, agg_factor}`, `idle {seconds, busy_passes, idle_passes,
/// wakeups, cpu_seconds}`, `backpressure {attempts, accepted, rejected,
/// elapsed_s, attempts_per_sec, rejects_per_sec, reject_attempts,
/// reject_allocs, invalid_slot_attempts, invalid_slot_allocs}`,
/// `net {events, connections, elapsed_s, events_per_sec,
/// inproc_events_per_sec, frames_tx, bytes_tx, credit_stalls, reconnects,
/// lost_events, unaccounted_events}`,
/// `saturated_producer_cpu
/// {park_seconds, cpu_seconds, parks, wakeups, retries_while_parked,
/// wake_latency_s}`, `overload {shed {attempts, delivered, shed,
/// unaccounted_events, submits_per_sec}}`, `observability {events,
/// uninstrumented_events_per_sec, instrumented_events_per_sec,
/// overhead_pct, record_attempts, record_allocs, latency_samples,
/// latency_p50_ns, latency_p99_ns, latency_max_ns}`.
///
/// The **observability** scenario (new with the telemetry subsystem)
/// replays the trace with `enable_metrics` off and on — on, the pipeline
/// stamps 1 submit in 64 on the steady clock — and asserts the
/// instrumented path costs <5% throughput and never heap-allocates on the
/// record path.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "stream/trace.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/logging.h"

/// Process-wide allocation counter behind the reject-path
/// allocation-freedom assertion. Replacing global operator new/delete is
/// the only way to observe "this path never allocates" from outside;
/// the counting is one relaxed fetch_add over malloc, cheap enough to
/// leave on for the whole bench.
std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace countlib {
namespace {

struct RunResult {
  std::string mode;
  uint64_t producers;
  uint64_t events;
  double elapsed_s;
  double events_per_sec;
  double agg_factor;  // events applied per store update (1.0 for direct)
};

struct IdleResult {
  double seconds;
  uint64_t busy_passes;
  uint64_t idle_passes;
  uint64_t wakeups;
  double cpu_seconds;
};

struct BackpressureResult {
  uint64_t attempts;
  uint64_t accepted;
  uint64_t rejected;
  double elapsed_s;
  double attempts_per_sec;
  double rejects_per_sec;
  uint64_t reject_attempts;        // kPending audit hammer size
  uint64_t reject_allocs;          // heap allocs across the kPending hammer
  uint64_t invalid_slot_attempts;  // invalid-slot reject hammer size
  uint64_t invalid_slot_allocs;    // heap allocs across that hammer
};

struct SaturatedProducerResult {
  double park_seconds;      // wall time the producer spent blocked
  double cpu_seconds;       // producer-thread CPU across the blocked Submit
  uint64_t parks;           // eventcount park episodes
  uint64_t wakeups;         // parks ended by a drain's nonfull signal
  uint64_t retries_while_parked;  // TrySubmit rejects while blocked
  double wake_latency_s;    // resume -> Submit returned
};

struct OverloadResult {
  // kShed against a frozen ring: delivered + shed must equal attempts.
  uint64_t shed_attempts;
  uint64_t shed_delivered;
  uint64_t shed_shed;
  uint64_t shed_unaccounted;     // attempts - delivered - shed (must stay 0)
  double shed_submits_per_sec;   // Submit rate while the ring is frozen full
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  struct rusage usage;
  COUNTLIB_CHECK_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const auto to_s = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

/// CPU consumed by the *calling thread* only — the saturated-producer
/// scenario charges the parked producer, not the workers draining beside
/// it.
double ThreadCpuSeconds() {
  struct timespec ts;
  COUNTLIB_CHECK_EQ(clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One shard (== lane) per producer or worker that writes the store.
std::unique_ptr<analytics::ShardedCounterStore> MakeStore(uint64_t shards,
                                                          uint64_t n_max) {
  return analytics::ShardedCounterStore::Make(shards, CounterKind::kSampling,
                                              16, n_max, 7)
      .ValueOrDie();
}

/// Splits the trace round-robin so every producer sees the same key skew.
std::vector<std::vector<pipeline::Event>> Partition(
    const std::vector<stream::KeyEvent>& events, uint64_t producers) {
  std::vector<std::vector<pipeline::Event>> parts(producers);
  for (auto& p : parts) p.reserve(events.size() / producers + 1);
  for (size_t i = 0; i < events.size(); ++i) {
    parts[i % producers].push_back(
        pipeline::Event{events[i].key, events[i].weight});
  }
  return parts;
}

RunResult RunDirect(const std::vector<std::vector<pipeline::Event>>& parts,
                    uint64_t n_max) {
  auto store = MakeStore(parts.size(), n_max);
  uint64_t total = 0;
  for (const auto& p : parts) total += p.size();
  const double start = Now();
  std::vector<std::thread> threads;
  for (uint64_t p = 0; p < parts.size(); ++p) {
    threads.emplace_back([&store, &parts, p] {
      for (const pipeline::Event& e : parts[p]) {
        const analytics::KeyWeight kw{e.key, e.weight};
        COUNTLIB_CHECK_OK(store->IncrementBatch(p, &kw, 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = Now() - start;
  return RunResult{"direct", parts.size(), total, elapsed,
                   static_cast<double>(total) / elapsed, 1.0};
}

RunResult RunPipeline(const std::vector<std::vector<pipeline::Event>>& parts,
                      uint64_t n_max, uint64_t workers,
                      uint64_t queue_capacity, uint64_t max_batch,
                      const std::vector<uint64_t>& worker_steps = {}) {
  uint64_t max_workers = workers;
  for (uint64_t n : worker_steps) max_workers = std::max(max_workers, n);
  auto store = MakeStore(max_workers, n_max);
  pipeline::PipelineOptions opt;
  opt.num_producers = parts.size();
  opt.num_workers = workers;
  opt.queue_capacity = queue_capacity;
  opt.max_batch = max_batch;
  auto ingest = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  uint64_t total = 0;
  for (const auto& p : parts) total += p.size();
  const double start = Now();
  std::vector<std::thread> threads;
  for (uint64_t p = 0; p < parts.size(); ++p) {
    threads.emplace_back([&ingest, &parts, p] {
      for (const pipeline::Event& e : parts[p]) {
        COUNTLIB_CHECK_OK(ingest->Submit(p, e.key, e.weight));
      }
    });
  }
  // The elastic scenario: step the worker pool while producers submit.
  // Each step re-partitions ring ownership at the join barrier; queued
  // events must all survive (checked below via events_applied).
  for (uint64_t n : worker_steps) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    COUNTLIB_CHECK_OK(ingest->SetWorkerCount(n));
  }
  for (auto& t : threads) t.join();
  COUNTLIB_CHECK_OK(ingest->Drain());
  const double elapsed = Now() - start;
  const pipeline::PipelineStats stats = ingest->Stats();
  COUNTLIB_CHECK_EQ(stats.events_applied, total);
  const double agg = stats.updates_applied == 0
                         ? 1.0
                         : static_cast<double>(stats.events_applied) /
                               static_cast<double>(stats.updates_applied);
  return RunResult{worker_steps.empty() ? "pipeline" : "pipeline-elastic",
                   parts.size(), total, elapsed,
                   static_cast<double>(total) / elapsed, agg};
}

/// Watches a flushed, quiet pipeline for `seconds`: with CV-parked workers
/// the busy-pass count must stay at zero and the idle passes bounded by
/// the sleep-timeout wake rate (~20/s per worker) — the old yield/sleep
/// backoff burned ~10k passes/s per worker here.
IdleResult RunIdle(double seconds, uint64_t workers) {
  auto store = MakeStore(workers, 1u << 20);
  pipeline::PipelineOptions opt;
  opt.num_producers = workers;
  opt.num_workers = workers;
  auto ingest = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  for (uint64_t p = 0; p < workers; ++p) {
    for (uint64_t i = 0; i < 1000; ++i) {
      COUNTLIB_CHECK_OK(ingest->Submit(p, i, 1));
    }
  }
  COUNTLIB_CHECK_OK(ingest->Flush());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // settle

  const pipeline::PipelineStats before = ingest->Stats();
  const double cpu_before = ProcessCpuSeconds();
  const double start = Now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  const double elapsed = Now() - start;
  const double cpu = ProcessCpuSeconds() - cpu_before;
  const pipeline::PipelineStats after = ingest->Stats();
  COUNTLIB_CHECK_OK(ingest->Drain());

  IdleResult r;
  r.seconds = elapsed;
  r.busy_passes = after.batches_applied - before.batches_applied;
  r.idle_passes = after.idle_passes - before.idle_passes;
  r.wakeups = after.worker_wakeups - before.worker_wakeups;
  r.cpu_seconds = cpu;
  // The acceptance gate: a quiet second must be near-free. Zero batches
  // (nothing was submitted) and idle passes bounded well under the old
  // poll rate.
  COUNTLIB_CHECK_EQ(r.busy_passes, uint64_t{0});
  COUNTLIB_CHECK_LT(r.idle_passes, uint64_t{1000});
  return r;
}

/// Tight-loop TrySubmit against a tiny queue: the rejects/sec rate is a
/// direct read on the kPending path's cost (now allocation-free). The
/// accepted count is scheduler-dependent (the hammer loop deliberately
/// never backs off, so on few-core boxes the worker runs only on
/// preemption) — only the attempt/reject rates are meaningful here.
BackpressureResult RunBackpressure(double seconds) {
  auto store = MakeStore(1, 1u << 20);
  pipeline::PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 2;
  opt.max_batch = 1;
  auto ingest = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  BackpressureResult r{0, 0, 0, 0.0, 0.0, 0.0, 0, 0, 0, 0};
  const double start = Now();
  const double deadline = start + seconds;
  while (Now() < deadline) {
    for (int i = 0; i < 1024; ++i) {
      const Status st = ingest->TrySubmit(0, /*key=*/r.attempts & 63, 1);
      ++r.attempts;
      if (st.ok()) {
        ++r.accepted;
      } else {
        COUNTLIB_CHECK(st.IsPending()) << st.ToString();
        ++r.rejected;
      }
    }
  }
  r.elapsed_s = Now() - start;

  // Allocation-freedom audit of the reject paths. Pause the pipeline
  // (SetWorkerCount(0)) so the only thread that could allocate is this
  // one: with the workers gone, a nonzero delta across the hammer loops
  // can only come from the reject paths themselves.
  COUNTLIB_CHECK_OK(ingest->SetWorkerCount(0));
  while (ingest->TrySubmit(0, 1, 1).ok()) {
  }
  constexpr uint64_t kAuditAttempts = 100000;
  // Warm both paths once first: the preallocated Status objects are
  // function-local statics, so their one-time construction (which does
  // allocate) must not be charged to the steady-state audit.
  COUNTLIB_CHECK(ingest->TrySubmit(0, 0, 1).IsPending());
  COUNTLIB_CHECK(ingest->TrySubmit(/*producer=*/1u << 20, 0, 1)
                     .IsInvalidArgument());
  uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < kAuditAttempts; ++i) {
    COUNTLIB_CHECK(ingest->TrySubmit(0, i & 63, 1).IsPending());
  }
  r.reject_attempts = kAuditAttempts;
  r.reject_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  r.invalid_slot_attempts = kAuditAttempts;
  allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < kAuditAttempts; ++i) {
    COUNTLIB_CHECK(ingest->TrySubmit(/*producer=*/1u << 20, i & 63, 1)
                       .IsInvalidArgument());
  }
  r.invalid_slot_allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  // The acceptance gate: rejection is exactly the moment the system is
  // saturated, so neither reject path may touch the heap.
  COUNTLIB_CHECK_EQ(r.reject_allocs, uint64_t{0});
  COUNTLIB_CHECK_EQ(r.invalid_slot_allocs, uint64_t{0});

  COUNTLIB_CHECK_OK(ingest->Drain());
  r.attempts_per_sec = static_cast<double>(r.attempts) / r.elapsed_s;
  r.rejects_per_sec = static_cast<double>(r.rejected) / r.elapsed_s;
  return r;
}

/// A producer parked on a full ring for `seconds`: with the not-full
/// eventcount the blocked Submit must cost milliseconds of CPU (asserted
/// <5ms per parked second), where the old 100µs sleep-poll backoff burned
/// a meaningful slice of a core. The pipeline is paused so no drain frees
/// space until the resume, which also measures the wake latency.
SaturatedProducerResult RunSaturatedProducer(double seconds) {
  auto store = MakeStore(1, 1u << 20);
  pipeline::PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 1024;
  opt.max_batch = 2048;  // the resume drains the whole ring in one pass
  auto ingest = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  COUNTLIB_CHECK_OK(ingest->SetWorkerCount(0));
  while (ingest->TrySubmit(0, 1, 1).ok()) {
  }
  const pipeline::PipelineStats before = ingest->Stats();

  std::atomic<double> cpu{0.0};
  std::atomic<double> returned_at{0.0};
  const double park_start = Now();
  std::thread producer([&] {
    const double cpu_before = ThreadCpuSeconds();
    COUNTLIB_CHECK_OK(ingest->Submit(0, /*key=*/1, /*weight=*/1));
    cpu.store(ThreadCpuSeconds() - cpu_before, std::memory_order_relaxed);
    returned_at.store(Now(), std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  const double resume_at = Now();
  COUNTLIB_CHECK_OK(ingest->SetWorkerCount(1));
  producer.join();

  const pipeline::PipelineStats after = ingest->Stats();
  COUNTLIB_CHECK_OK(ingest->Drain());
  SaturatedProducerResult r;
  r.park_seconds = returned_at.load() - park_start;
  r.cpu_seconds = cpu.load();
  r.parks = after.producer_parks - before.producer_parks;
  r.wakeups = after.producer_wakeups - before.producer_wakeups;
  r.retries_while_parked = after.events_rejected - before.events_rejected;
  r.wake_latency_s = returned_at.load() - resume_at;
  // The acceptance gates: a parked second costs <5ms of producer CPU (the
  // ISSUE 3 criterion), and the wake rides the first drain, not a coarse
  // timeout ladder.
  COUNTLIB_CHECK_LT(r.cpu_seconds, 0.005 * (seconds < 1.0 ? 1.0 : seconds));
  COUNTLIB_CHECK_LT(r.wake_latency_s, 0.25);
  return r;
}

/// The shed policy against a paused pipeline (the hard overload case:
/// zero drain progress). Shed mode must keep Submit non-blocking and
/// balance delivered + shed == submitted to the last event; the invariant
/// is asserted here, not just reported.
OverloadResult RunOverload() {
  OverloadResult r{};
  auto store = MakeStore(1, 1u << 20);
  pipeline::PipelineOptions opt;
  opt.num_producers = 1;
  opt.num_workers = 1;
  opt.queue_capacity = 1024;
  opt.overload = pipeline::OverloadPolicy::kShed;
  auto ingest = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  COUNTLIB_CHECK_OK(ingest->SetWorkerCount(0));  // freeze: no drains
  constexpr uint64_t kAttempts = 100000;
  const double start = Now();
  for (uint64_t i = 0; i < kAttempts; ++i) {
    // Never blocks, never returns kPending: the frozen ring fills and
    // every further event is shed with exact accounting.
    COUNTLIB_CHECK_OK(ingest->Submit(0, /*key=*/i & 63, 1));
  }
  const double elapsed = Now() - start;
  COUNTLIB_CHECK_OK(ingest->SetWorkerCount(1));
  COUNTLIB_CHECK_OK(ingest->Drain());
  const pipeline::PipelineStats stats = ingest->Stats();
  r.shed_attempts = kAttempts;
  r.shed_delivered = stats.events_applied;
  r.shed_shed = stats.events_shed;
  r.shed_unaccounted = kAttempts - stats.events_applied - stats.events_shed;
  r.shed_submits_per_sec = static_cast<double>(kAttempts) / elapsed;
  // The books must balance exactly, and shedding must actually have
  // happened (the ring holds 1024 of the 100k attempts).
  COUNTLIB_CHECK_EQ(r.shed_delivered + r.shed_shed, r.shed_attempts);
  COUNTLIB_CHECK_EQ(r.shed_unaccounted, uint64_t{0});
  COUNTLIB_CHECK_GT(r.shed_shed, uint64_t{0});
  return r;
}

struct NetResult {
  uint64_t events;
  uint64_t connections;
  double elapsed_s;
  double events_per_sec;         // over loopback TCP, framed + credited
  double inproc_events_per_sec;  // the same trace via in-process Submit
  uint64_t frames_tx;            // client-side event frames
  uint64_t bytes_tx;             // client-side wire bytes out
  uint64_t credit_stalls;        // client parks waiting for a refill
  uint64_t reconnects;
  uint64_t lost_events;          // must stay zero on a healthy loopback
  uint64_t unaccounted_events;   // submitted - delivered - shed - lost (0)
};

/// The socket front-end against its in-process ceiling: the same Zipf
/// trace replayed (a) through EventClient connections over loopback TCP —
/// framing, CRC, credit flow control, acks — into the pipeline, and (b)
/// through plain in-process `Submit` on the identical pipeline config.
/// The events/s gap is the whole wire tax; the exact-accounting
/// invariants (nothing lost, nothing unaccounted) are asserted here and
/// judged as must-stay-zero by bench_diff.
NetResult RunNet(uint64_t num_events, uint64_t keys, double skew,
                 uint64_t connections,
                 uint64_t queue_capacity, uint64_t max_batch) {
  auto trace =
      stream::Trace::GenerateZipf(keys, skew, num_events, 4242).ValueOrDie();
  const auto& events = trace.events();
  NetResult r{};
  r.events = num_events;
  r.connections = connections;

  const auto make_pipeline = [&](analytics::ShardedCounterStore* store) {
    pipeline::PipelineOptions opt;
    opt.num_producers = connections;
    opt.num_workers = 2;
    opt.queue_capacity = queue_capacity;
    opt.max_batch = max_batch;
    return pipeline::IngestPipeline::Make(store, opt).ValueOrDie();
  };

  {
    // Loopback run.
    auto store = MakeStore(2, num_events);
    auto ingest = make_pipeline(store.get());
    auto server =
        net::EventServer::Make(ingest.get(), net::ServerOptions()).ValueOrDie();
    std::vector<net::ClientStats> per_conn(connections);
    const double start = Now();
    std::vector<std::thread> threads;
    for (uint64_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        net::ClientOptions copt;
        copt.port = server->port();
        auto client = net::EventClient::Connect(copt).ValueOrDie();
        for (uint64_t i = c; i < events.size(); i += connections) {
          COUNTLIB_CHECK_OK(client->Submit(events[i].key, events[i].weight));
        }
        COUNTLIB_CHECK_OK(client->Close());
        per_conn[c] = client->Stats();
      });
    }
    for (auto& t : threads) t.join();
    r.elapsed_s = Now() - start;
    COUNTLIB_CHECK_OK(server->Stop());
    COUNTLIB_CHECK_OK(ingest->Drain());

    uint64_t submitted = 0, delivered = 0, shed = 0;
    for (const auto& s : per_conn) {
      submitted += s.events_submitted;
      delivered += s.events_delivered;
      shed += s.events_shed;
      r.lost_events += s.events_lost_unacked;
      r.frames_tx += s.frames_tx;
      r.bytes_tx += s.bytes_tx;
      r.credit_stalls += s.credit_stalls;
      r.reconnects += s.reconnects;
    }
    r.unaccounted_events = submitted - delivered - shed - r.lost_events;
    r.events_per_sec = static_cast<double>(submitted) / r.elapsed_s;
    // The acceptance gates: exact books over the wire, nothing lost on a
    // healthy loopback, and everything a client submitted reached the
    // pipeline.
    COUNTLIB_CHECK_EQ(submitted, num_events);
    COUNTLIB_CHECK_EQ(r.lost_events, uint64_t{0});
    COUNTLIB_CHECK_EQ(r.unaccounted_events, uint64_t{0});
    COUNTLIB_CHECK_EQ(ingest->Stats().events_applied, delivered);
  }

  {
    // In-process ceiling: same pipeline shape, no sockets.
    auto store = MakeStore(2, num_events);
    auto ingest = make_pipeline(store.get());
    const double start = Now();
    std::vector<std::thread> threads;
    for (uint64_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        for (uint64_t i = c; i < events.size(); i += connections) {
          COUNTLIB_CHECK_OK(ingest->Submit(c, events[i].key,
                                           events[i].weight));
        }
      });
    }
    for (auto& t : threads) t.join();
    COUNTLIB_CHECK_OK(ingest->Drain());
    r.inproc_events_per_sec =
        static_cast<double>(num_events) / (Now() - start);
  }
  return r;
}

struct ObservabilityResult {
  uint64_t events;                        // per replay
  double uninstrumented_events_per_sec;   // best of 3
  double instrumented_events_per_sec;     // best of 3, metrics on
  double overhead_pct;                    // (base - inst) / base, floored at 0
  uint64_t record_attempts;               // alloc-audit hammer size
  uint64_t record_allocs;                 // heap allocs across the hammer
  uint64_t latency_samples;               // submit->apply recordings
  uint64_t latency_p50_ns;
  uint64_t latency_p99_ns;
  uint64_t latency_max_ns;
};

/// The telemetry overhead check: the same single-producer replay with
/// `enable_metrics` off and on (on stamps 1 submit in 64 for the
/// submit→apply histogram). Best-of-3 per mode damps scheduler noise; the
/// <5% ceiling is asserted here AND judged by bench_diff against the
/// committed baseline. A paused-pipeline phase then hammers the
/// instrumented TrySubmit path and asserts it never touches the heap —
/// counters, histogram recording and timestamp stamping are all
/// preallocated.
ObservabilityResult RunObservability(
    const std::vector<std::vector<pipeline::Event>>& parts, uint64_t n_max,
    uint64_t queue_capacity, uint64_t max_batch) {
  ObservabilityResult r{};
  for (const auto& p : parts) r.events += p.size();

  const auto replay = [&](bool instrument, obs::HistogramSnapshot* latency) {
    auto store = MakeStore(1, n_max);
    pipeline::PipelineOptions opt;
    opt.num_producers = parts.size();
    opt.num_workers = 1;
    opt.queue_capacity = queue_capacity;
    opt.max_batch = max_batch;
    opt.enable_metrics = instrument;
    auto ingest = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
    const double start = Now();
    std::vector<std::thread> threads;
    for (uint64_t p = 0; p < parts.size(); ++p) {
      threads.emplace_back([&ingest, &parts, p] {
        for (const pipeline::Event& e : parts[p]) {
          COUNTLIB_CHECK_OK(ingest->Submit(p, e.key, e.weight));
        }
      });
    }
    for (auto& t : threads) t.join();
    COUNTLIB_CHECK_OK(ingest->Drain());
    const double elapsed = Now() - start;
    if (latency != nullptr) {
      // Snapshot before the pipeline (and its registrations) go away.
      const obs::Snapshot snap = obs::GlobalSnapshot();
      *latency =
          snap.histograms.at("countlib_pipeline_submit_apply_latency_ns");
    }
    return static_cast<double>(r.events) / elapsed;
  };

  obs::HistogramSnapshot latency{};
  // Interleaved best-of-4 per mode: alternating off/on means machine
  // drift (frequency steps, noisy neighbors on shared runners) hits both
  // modes instead of poisoning one side's whole sample.
  for (int i = 0; i < 4; ++i) {
    r.uninstrumented_events_per_sec =
        std::max(r.uninstrumented_events_per_sec, replay(false, nullptr));
    r.instrumented_events_per_sec =
        std::max(r.instrumented_events_per_sec, replay(true, &latency));
  }
  r.latency_samples = latency.count;
  r.latency_p50_ns = latency.Percentile(0.50);
  r.latency_p99_ns = latency.Percentile(0.99);
  r.latency_max_ns = latency.max;
  r.overhead_pct = std::max(
      0.0, 100.0 *
               (r.uninstrumented_events_per_sec -
                r.instrumented_events_per_sec) /
               r.uninstrumented_events_per_sec);

  {
    // Allocation-freedom audit of the instrumented record path. Workers
    // paused: accepted TrySubmits count and stamp 1 in 64, and once the
    // ring is full each takes the preallocated reject.
    auto store = MakeStore(1, 1u << 20);
    pipeline::PipelineOptions opt;
    opt.num_producers = 1;
    opt.queue_capacity = 1024;
    opt.enable_metrics = true;
    auto ingest = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
    COUNTLIB_CHECK_OK(ingest->SetWorkerCount(0));
    // Warm thread-locals and the lazily built pending Status: fill the
    // ring and trip the first rejection outside the counted window.
    for (uint64_t i = 0; i < 1025; ++i) (void)ingest->TrySubmit(0, i & 63, 1);
    constexpr uint64_t kAttempts = 100000;
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < kAttempts; ++i) {
      (void)ingest->TrySubmit(0, i & 63, 1);
    }
    r.record_attempts = kAttempts;
    r.record_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    COUNTLIB_CHECK_OK(ingest->SetWorkerCount(1));
    COUNTLIB_CHECK_OK(ingest->Drain());
  }

  // The acceptance gates: instrumentation costs <5% throughput, records
  // without allocating, and the histogram percentiles are ordered.
  COUNTLIB_CHECK_LT(r.overhead_pct, 5.0);
  COUNTLIB_CHECK_EQ(r.record_allocs, uint64_t{0});
  COUNTLIB_CHECK_GT(r.latency_samples, uint64_t{0});
  COUNTLIB_CHECK_LE(r.latency_p50_ns, r.latency_p99_ns);
  COUNTLIB_CHECK_LE(r.latency_p99_ns, r.latency_max_ns);
  return r;
}

std::string ToJson(const std::vector<RunResult>& results,
                   const RunResult& elastic,
                   const std::vector<uint64_t>& worker_steps,
                   const IdleResult& idle, const BackpressureResult& bp,
                   const SaturatedProducerResult& sat,
                   const OverloadResult& overload,
                   const ObservabilityResult& obs, const NetResult& net,
                   uint64_t keys, double skew) {
  std::string out = "{\"bench\":\"pipeline_throughput\",\"keys\":" +
                    std::to_string(keys) + ",\"skew\":" + std::to_string(skew) +
                    ",\"configs\":[";
  char buf[512];
  // `extra` lands verbatim inside the object, after agg_factor — the
  // elastic entry uses it to carry its worker_steps array.
  const auto append_run = [&out, &buf](const RunResult& r,
                                       const std::string& extra = "") {
    std::snprintf(buf, sizeof(buf),
                  "{\"mode\":\"%s\",\"producers\":%llu,\"events\":%llu,"
                  "\"elapsed_s\":%.6f,\"events_per_sec\":%.1f,"
                  "\"agg_factor\":%.3f%s}",
                  r.mode.c_str(), static_cast<unsigned long long>(r.producers),
                  static_cast<unsigned long long>(r.events), r.elapsed_s,
                  r.events_per_sec, r.agg_factor, extra.c_str());
    out += buf;
  };
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) out += ",";
    append_run(results[i]);
  }
  out += "],\"elastic\":";
  std::string steps = ",\"worker_steps\":[";
  for (size_t i = 0; i < worker_steps.size(); ++i) {
    if (i > 0) steps += ",";
    steps += std::to_string(worker_steps[i]);
  }
  steps += "]";
  append_run(elastic, steps);
  std::snprintf(buf, sizeof(buf),
                ",\"idle\":{\"seconds\":%.3f,\"busy_passes\":%llu,"
                "\"idle_passes\":%llu,\"wakeups\":%llu,\"cpu_seconds\":%.4f}",
                idle.seconds, static_cast<unsigned long long>(idle.busy_passes),
                static_cast<unsigned long long>(idle.idle_passes),
                static_cast<unsigned long long>(idle.wakeups),
                idle.cpu_seconds);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      ",\"backpressure\":{\"attempts\":%llu,\"accepted\":%llu,"
      "\"rejected\":%llu,\"elapsed_s\":%.4f,\"attempts_per_sec\":%.1f,"
      "\"rejects_per_sec\":%.1f,\"reject_attempts\":%llu,"
      "\"reject_allocs\":%llu,"
      "\"invalid_slot_attempts\":%llu,\"invalid_slot_allocs\":%llu}",
      static_cast<unsigned long long>(bp.attempts),
      static_cast<unsigned long long>(bp.accepted),
      static_cast<unsigned long long>(bp.rejected), bp.elapsed_s,
      bp.attempts_per_sec, bp.rejects_per_sec,
      static_cast<unsigned long long>(bp.reject_attempts),
      static_cast<unsigned long long>(bp.reject_allocs),
      static_cast<unsigned long long>(bp.invalid_slot_attempts),
      static_cast<unsigned long long>(bp.invalid_slot_allocs));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      ",\"saturated_producer_cpu\":{\"park_seconds\":%.4f,"
      "\"cpu_seconds\":%.6f,\"parks\":%llu,\"wakeups\":%llu,"
      "\"retries_while_parked\":%llu,\"wake_latency_s\":%.6f}",
      sat.park_seconds, sat.cpu_seconds,
      static_cast<unsigned long long>(sat.parks),
      static_cast<unsigned long long>(sat.wakeups),
      static_cast<unsigned long long>(sat.retries_while_parked),
      sat.wake_latency_s);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      ",\"overload\":{\"shed\":{\"attempts\":%llu,\"delivered\":%llu,"
      "\"shed\":%llu,\"unaccounted_events\":%llu,\"submits_per_sec\":%.1f}}",
      static_cast<unsigned long long>(overload.shed_attempts),
      static_cast<unsigned long long>(overload.shed_delivered),
      static_cast<unsigned long long>(overload.shed_shed),
      static_cast<unsigned long long>(overload.shed_unaccounted),
      overload.shed_submits_per_sec);
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      ",\"observability\":{\"events\":%llu,"
      "\"uninstrumented_events_per_sec\":%.1f,"
      "\"instrumented_events_per_sec\":%.1f,\"overhead_pct\":%.2f,"
      "\"record_attempts\":%llu,\"record_allocs\":%llu,"
      "\"latency_samples\":%llu,\"latency_p50_ns\":%llu,"
      "\"latency_p99_ns\":%llu,\"latency_max_ns\":%llu}",
      static_cast<unsigned long long>(obs.events),
      obs.uninstrumented_events_per_sec, obs.instrumented_events_per_sec,
      obs.overhead_pct, static_cast<unsigned long long>(obs.record_attempts),
      static_cast<unsigned long long>(obs.record_allocs),
      static_cast<unsigned long long>(obs.latency_samples),
      static_cast<unsigned long long>(obs.latency_p50_ns),
      static_cast<unsigned long long>(obs.latency_p99_ns),
      static_cast<unsigned long long>(obs.latency_max_ns));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      ",\"net\":{\"events\":%llu,\"connections\":%llu,\"elapsed_s\":%.4f,"
      "\"events_per_sec\":%.1f,\"inproc_events_per_sec\":%.1f,"
      "\"frames_tx\":%llu,\"bytes_tx\":%llu,\"credit_stalls\":%llu,"
      "\"reconnects\":%llu,\"lost_events\":%llu,"
      "\"unaccounted_events\":%llu}",
      static_cast<unsigned long long>(net.events),
      static_cast<unsigned long long>(net.connections), net.elapsed_s,
      net.events_per_sec, net.inproc_events_per_sec,
      static_cast<unsigned long long>(net.frames_tx),
      static_cast<unsigned long long>(net.bytes_tx),
      static_cast<unsigned long long>(net.credit_stalls),
      static_cast<unsigned long long>(net.reconnects),
      static_cast<unsigned long long>(net.lost_events),
      static_cast<unsigned long long>(net.unaccounted_events));
  out += buf;
  out += "}";
  return out;
}

int Main(int argc, const char* const* argv) {
  FlagParser flags("pipeline_throughput: direct store writes vs async batched pipeline");
  flags.AddUint64("keys", 10000, "distinct keys in the trace");
  flags.AddUint64("events", 1000000, "events per configuration");
  flags.AddDouble("skew", 1.0, "Zipf skew");
  flags.AddUint64("workers", 1, "pipeline drain threads");
  flags.AddUint64("queue_capacity", 8192, "per-producer queue capacity");
  flags.AddUint64("max_batch", 2048, "max events per pre-aggregated batch");
  flags.AddDouble("idle_seconds", 1.0, "quiet-pipeline observation window");
  flags.AddUint64("net_events", 1000000,
                  "events for the loopback socket-ingestion scenario");
  flags.AddUint64("net_connections", 4,
                  "client connections in the net scenario");
  flags.AddString("json_out", "BENCH_pipeline_throughput.json",
                  "write the JSON document to this file (empty to skip)");
  COUNTLIB_CHECK_OK(flags.Parse(argc, argv));
  if (flags.help_requested()) {
    std::fputs(flags.HelpText().c_str(), stdout);
    return 0;
  }
  const uint64_t keys = flags.GetUint64("keys");
  const uint64_t events = flags.GetUint64("events");
  const double skew = flags.GetDouble("skew");

  auto trace = stream::Trace::GenerateZipf(keys, skew, events, 4242).ValueOrDie();
  std::printf("# PIPELINE: %llu events over %llu keys, Zipf skew %.2f\n",
              static_cast<unsigned long long>(events),
              static_cast<unsigned long long>(keys), skew);

  std::vector<RunResult> results;
  TableWriter table(&std::cout, {"mode", "producers", "events_per_sec",
                                 "elapsed_s", "agg_factor"});
  for (uint64_t producers : {uint64_t{1}, uint64_t{4}}) {
    const auto parts = Partition(trace.events(), producers);
    for (int mode = 0; mode < 2; ++mode) {
      RunResult r = mode == 0
                        ? RunDirect(parts, events)
                        : RunPipeline(parts, events,
                                      flags.GetUint64("workers"),
                                      flags.GetUint64("queue_capacity"),
                                      flags.GetUint64("max_batch"));
      table.BeginRow() << r.mode << r.producers << r.events_per_sec
                       << r.elapsed_s << r.agg_factor;
      COUNTLIB_CHECK_OK(table.EndRow());
      results.push_back(std::move(r));
    }
  }

  const std::vector<uint64_t> worker_steps = {4, 2, 4};
  const auto elastic_parts = Partition(trace.events(), 4);
  RunResult elastic = RunPipeline(
      elastic_parts, events, /*workers=*/1,
      flags.GetUint64("queue_capacity"), flags.GetUint64("max_batch"),
      worker_steps);
  table.BeginRow() << elastic.mode << elastic.producers
                   << elastic.events_per_sec << elastic.elapsed_s
                   << elastic.agg_factor;
  COUNTLIB_CHECK_OK(table.EndRow());

  const IdleResult idle = RunIdle(flags.GetDouble("idle_seconds"), 2);
  std::printf(
      "# idle: %.2fs quiet -> %llu busy passes, %llu idle passes, "
      "%llu wakeups, %.4fs cpu\n",
      idle.seconds, static_cast<unsigned long long>(idle.busy_passes),
      static_cast<unsigned long long>(idle.idle_passes),
      static_cast<unsigned long long>(idle.wakeups), idle.cpu_seconds);

  const BackpressureResult bp = RunBackpressure(0.25);
  std::printf(
      "# backpressure: %.1fM TrySubmit/s against a full queue "
      "(%.0f%% rejected, allocation-free kPending)\n"
      "#   reject-path heap allocs over %llu kPending + %llu invalid-slot "
      "attempts: %llu + %llu\n",
      bp.attempts_per_sec / 1e6,
      100.0 * static_cast<double>(bp.rejected) /
          static_cast<double>(bp.attempts == 0 ? 1 : bp.attempts),
      static_cast<unsigned long long>(bp.reject_attempts),
      static_cast<unsigned long long>(bp.invalid_slot_attempts),
      static_cast<unsigned long long>(bp.reject_allocs),
      static_cast<unsigned long long>(bp.invalid_slot_allocs));

  const SaturatedProducerResult sat =
      RunSaturatedProducer(flags.GetDouble("idle_seconds"));
  std::printf(
      "# saturated-producer-cpu: %.2fs parked on a full ring -> %.4fms "
      "producer CPU, %llu parks, %llu retries, woke %.2fms after resume\n",
      sat.park_seconds, sat.cpu_seconds * 1e3,
      static_cast<unsigned long long>(sat.parks),
      static_cast<unsigned long long>(sat.retries_while_parked),
      sat.wake_latency_s * 1e3);

  const OverloadResult overload = RunOverload();
  std::printf(
      "# overload: shed %llu attempts -> %llu delivered + %llu shed "
      "(balanced, %.1fM submits/s frozen)\n",
      static_cast<unsigned long long>(overload.shed_attempts),
      static_cast<unsigned long long>(overload.shed_delivered),
      static_cast<unsigned long long>(overload.shed_shed),
      overload.shed_submits_per_sec / 1e6);

  const ObservabilityResult obs = RunObservability(
      Partition(trace.events(), 1), events, flags.GetUint64("queue_capacity"),
      flags.GetUint64("max_batch"));
  std::printf(
      "# observability: %.1fM ev/s uninstrumented vs %.1fM instrumented "
      "(%.2f%% overhead); %llu recording TrySubmits -> %llu heap allocs; "
      "submit->apply p50/p99/max %llu/%llu/%llu ns over %llu samples\n",
      obs.uninstrumented_events_per_sec / 1e6,
      obs.instrumented_events_per_sec / 1e6, obs.overhead_pct,
      static_cast<unsigned long long>(obs.record_attempts),
      static_cast<unsigned long long>(obs.record_allocs),
      static_cast<unsigned long long>(obs.latency_p50_ns),
      static_cast<unsigned long long>(obs.latency_p99_ns),
      static_cast<unsigned long long>(obs.latency_max_ns),
      static_cast<unsigned long long>(obs.latency_samples));

  const NetResult net = RunNet(
      flags.GetUint64("net_events"), keys, skew,
      flags.GetUint64("net_connections"), flags.GetUint64("queue_capacity"),
      flags.GetUint64("max_batch"));
  std::printf(
      "# net: %llu events over %llu loopback connections -> %.2fM ev/s "
      "(in-process ceiling %.2fM), %llu frames, %.1f MB tx, %llu credit "
      "stalls, %llu lost, %llu unaccounted\n",
      static_cast<unsigned long long>(net.events),
      static_cast<unsigned long long>(net.connections),
      net.events_per_sec / 1e6, net.inproc_events_per_sec / 1e6,
      static_cast<unsigned long long>(net.frames_tx),
      static_cast<double>(net.bytes_tx) / 1e6,
      static_cast<unsigned long long>(net.credit_stalls),
      static_cast<unsigned long long>(net.lost_events),
      static_cast<unsigned long long>(net.unaccounted_events));

  const std::string json =
      ToJson(results, elastic, worker_steps, idle, bp, sat, overload, obs,
             net, keys, skew);
  std::printf("%s\n", json.c_str());
  const std::string json_out = flags.GetString("json_out");
  if (!json_out.empty()) {
    std::ofstream f(json_out);
    f << json << "\n";
    if (!f.good()) {
      std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace countlib

int main(int argc, char** argv) { return countlib::Main(argc, argv); }
