#include "sut.h"

#include <algorithm>
#include <utility>

#include "common.h"
#include "random/distributions.h"
#include "random/rng.h"

namespace e2ebench {

using countlib::CounterKind;
using countlib::Result;
using countlib::Status;
using countlib::analytics::KeyWeight;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;

    // Zipf(1.4): the drain workers fold ~5.4 events into each store
    // update, so the store is a minority of the cost. At Zipf(1.1) they
    // folded ~2.5 and the store was the largest layer. At Zipf(1.8) the
    // workers outpace the connections, drain 170-event batches and park
    // between them, and ingest_eps falls from ~11M to ~4.4M events/s:
    // the workload would measure wake-ups instead of net and pipeline.
    WorkloadSpec hot;
    hot.name = "zipf-hot";
    hot.kind = CounterKind::kExact;
    hot.state_bits = 32;
    hot.num_keys = 10000;
    hot.skew = 1.4;
    hot.rounds = 20;
    w.push_back(hot);

    WorkloadSpec wide;
    wide.name = "uniform-wide";
    wide.kind = CounterKind::kMorris;
    wide.state_bits = 16;
    wide.num_keys = uint64_t{1} << 20;
    wide.skew = 0.0;
    wide.warmup = true;
    wide.rounds = 16;
    w.push_back(wide);

    // 2^16 keys: a TopK over 2^18 warm keys takes ~390 ms on a 4-vCPU
    // host and, twice a second, would freeze the writers most of the
    // time; over 2^16 keys it takes ~110 ms. Open loop at 0.5M events/s,
    // about a third of what closed-loop writers reach beside these reads:
    // closed-loop writers here measured how fast parked writers are woken
    // on a shared host: their throughput spread 0.34-0.43 over ten seeds.
    WorkloadSpec mixed;
    mixed.name = "mixed-rw";
    mixed.kind = CounterKind::kMorris;
    mixed.state_bits = 16;
    mixed.num_keys = uint64_t{1} << 16;
    mixed.skew = 1.0;
    mixed.warmup = true;
    mixed.offered_eps = 500000;
    mixed.estimate_hz = 1000;
    mixed.topk_hz = 2;
    mixed.rounds = 8;
    w.push_back(mixed);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  auto zipf = countlib::ZipfDistribution::Make(spec.num_keys, spec.skew)
                  .ValueOrDie();
  countlib::Rng root(seed * 0x9E3779B97F4A7C15ull + 0x51ED);
  auto draw = [&](countlib::Rng* rng, uint64_t n) {
    std::vector<uint32_t> out(n);
    for (uint64_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint32_t>(spec.skew == 0.0
                                         ? rng->UniformBelow(spec.num_keys)
                                         : zipf.Sample(rng));
    }
    return out;
  };
  Inputs in;
  for (uint64_t c = 0; c < kConnections; ++c) {
    countlib::Rng rng = root.Fork();
    in.conn_ranks.push_back(draw(&rng, kTraceEventsPerConn));
  }
  countlib::Rng rng = root.Fork();
  in.reader_ranks = draw(&rng, 1 << 16);
  return in;
}

RecordingWriter::RecordingWriter(countlib::analytics::CounterWriter* inner,
                                 uint64_t max_events_per_lane)
    : inner_(inner),
      lanes_(inner->num_lanes()),
      max_events_per_lane_(max_events_per_lane) {}

Status RecordingWriter::IncrementBatch(uint64_t lane, const KeyWeight* updates,
                                       size_t n) {
  if (lane < lanes_.size() && armed_.load(std::memory_order_acquire) &&
      lanes_[lane].events < max_events_per_lane_) {
    Lane& l = lanes_[lane];
    l.batches.emplace_back(updates, updates + n);
    for (size_t i = 0; i < n; ++i) l.events += updates[i].weight;
  }
  return inner_->IncrementBatch(lane, updates, n);
}

Status SlowWriter::IncrementBatch(uint64_t lane, const KeyWeight* updates,
                                  size_t n) {
  const uint64_t until =
      ThreadCpuNs() + static_cast<uint64_t>(ns_per_update_ * n);
  while (ThreadCpuNs() < until) {
  }
  return inner_->IncrementBatch(lane, updates, n);
}

Result<std::unique_ptr<countlib::analytics::ShardedCounterStore>> MakeStore(
    const WorkloadSpec& spec, uint64_t seed) {
  return countlib::analytics::ShardedCounterStore::Make(
      kShards, spec.kind, spec.state_bits, kNMax, seed);
}

Result<std::unique_ptr<System>> System::Start(const WorkloadSpec& spec,
                                              uint64_t seed,
                                              const SystemOptions& options) {
  std::unique_ptr<System> sys(new System());
  COUNTLIB_ASSIGN_OR_RETURN(sys->store_, MakeStore(spec, seed));
  countlib::analytics::CounterWriter* writer = sys->store_.get();
  if (options.slowdown_ns_per_update > 0) {
    sys->slow_ = std::make_unique<SlowWriter>(writer,
                                              options.slowdown_ns_per_update);
    writer = sys->slow_.get();
  }
  if (options.record_events_per_lane > 0) {
    sys->recorder_ = std::make_unique<RecordingWriter>(
        writer, options.record_events_per_lane);
    writer = sys->recorder_.get();
  }

  countlib::pipeline::PipelineOptions popt;
  // One producer slot per connection, so worker w owns exactly the ring
  // of connection w.
  popt.num_producers = kConnections;
  popt.num_workers = kWorkers;
  const std::vector<int> before = ListThreads();
  COUNTLIB_ASSIGN_OR_RETURN(
      sys->pipeline_, countlib::pipeline::IngestPipeline::Make(writer, popt));
  for (int tid : ListThreads()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      sys->worker_tids_.push_back(tid);
    }
  }
  countlib::net::ServerOptions sopt;
  COUNTLIB_ASSIGN_OR_RETURN(
      sys->server_, countlib::net::EventServer::Make(sys->pipeline_.get(), sopt));
  return sys;
}

System::~System() { (void)Stop(); }

Status System::Stop() {
  Status st;
  if (server_ != nullptr) st = server_->Stop();
  if (pipeline_ != nullptr) {
    const Status drained = pipeline_->Drain();
    if (st.ok()) st = drained;
  }
  return st;
}

Result<std::unique_ptr<countlib::net::EventClient>> System::Connect() const {
  countlib::net::ClientOptions copt;
  copt.port = server_->port();
  return countlib::net::EventClient::Connect(copt);
}

}  // namespace e2ebench
