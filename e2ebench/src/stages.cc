#include "stages.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/counter_factory.h"
#include "net/wire.h"
#include "util/bit_io.h"

namespace e2ebench {

using countlib::Status;
using countlib::analytics::KeyWeight;

namespace {

constexpr uint64_t kStageEventsPerConn = uint64_t{1} << 20;
constexpr uint64_t kPipelineChunk = uint64_t{1} << 16;  // events per ring
constexpr uint32_t kFrameEvents = 512;
constexpr uint64_t kCoreSampleUpdates = uint64_t{1} << 18;
constexpr uint64_t kEstimateSamples = 2000;
constexpr uint64_t kTopKSamples = 5;

/// The first `n` keys of connection `c`'s trace.
std::vector<uint64_t> StageKeys(const Inputs& in, uint64_t c, uint64_t n) {
  const std::vector<uint32_t>& ranks = in.conn_ranks[c];
  std::vector<uint64_t> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = KeyOfRank(ranks[i % ranks.size()]);
  return keys;
}

void StageWire(const std::vector<uint64_t>& keys, SpanLog* spans,
               StageCosts* out) {
  namespace net = countlib::net;
  const uint64_t frames = keys.size() / kFrameEvents;
  const uint64_t n = frames * kFrameEvents;
  std::vector<net::EventRecord> records(n);
  for (uint64_t i = 0; i < n; ++i) records[i] = net::EventRecord{keys[i], 1};
  const uint64_t payload = net::EventBatchPayloadSize(kFrameEvents);
  const uint64_t frame_bytes = net::kFrameHeaderSize + payload;
  std::vector<uint8_t> wire(frames * frame_bytes);
  std::vector<Span>* sp = spans->Buffer();

  {
    ScopedSpan span(sp, "net.encode", "stage.W", 0, n);
    const uint64_t cpu0 = ThreadCpuNs();
    for (uint64_t f = 0; f < frames; ++f) {
      uint8_t* buf = wire.data() + f * frame_bytes;
      net::FrameHeader h;
      h.type = net::FrameType::kEventBatch;
      h.payload_len = static_cast<uint32_t>(payload);
      h.seq = f + 1;
      net::EncodeFrameHeader(h, buf);
      net::EncodeEventBatch(records.data() + f * kFrameEvents, kFrameEvents,
                            buf + net::kFrameHeaderSize);
    }
    out->encode_ns_per_event =
        static_cast<double>(ThreadCpuNs() - cpu0) / static_cast<double>(n);
  }
  {
    std::vector<net::EventRecord> decoded(kFrameEvents);
    ScopedSpan span(sp, "net.decode", "stage.W", 0, n);
    const uint64_t cpu0 = ThreadCpuNs();
    for (uint64_t f = 0; f < frames; ++f) {
      const uint8_t* buf = wire.data() + f * frame_bytes;
      net::FrameHeader h;
      uint32_t count = 0;
      if (!net::DecodeFrameHeader(buf, net::kFrameHeaderSize, payload, &h)
               .ok() ||
          !net::DecodeEventBatch(buf + net::kFrameHeaderSize, h.payload_len,
                                 decoded.data(), kFrameEvents, &count)
               .ok() ||
          count != kFrameEvents ||
          decoded[kFrameEvents - 1].key !=
              records[(f + 1) * kFrameEvents - 1].key) {
        ++out->errors;
      }
    }
    out->decode_ns_per_event =
        static_cast<double>(ThreadCpuNs() - cpu0) / static_cast<double>(n);
  }
}

/// Accepts every batch and does nothing: isolates the pipeline from the
/// store.
class NoopWriter final : public countlib::analytics::CounterWriter {
 public:
  uint64_t num_lanes() const override { return kShards; }
  Status IncrementBatch(uint64_t lane, const KeyWeight* /*updates*/,
                        size_t /*n*/) override {
    if (lane >= kShards) return Status::InvalidArgument("noop writer: bad lane");
    return Status::OK();
  }
};

void StagePipeline(const std::vector<std::vector<uint64_t>>& keys,
                   uint64_t events, SpanLog* spans, StageCosts* out) {
  // Submit and drain alternate: with the workers paused, this thread fills
  // every ring (a lease per connection) with one chunk; then the workers
  // are resumed and drain it while this thread waits in Flush. Neither
  // side ever waits on the other mid-chunk, so the figures are the two
  // halves' own work.
  NoopWriter noop;
  countlib::pipeline::PipelineOptions popt;
  popt.num_producers = kConnections;
  popt.num_workers = kWorkers;
  popt.queue_capacity = kPipelineChunk;
  const auto pipe =
      countlib::pipeline::IngestPipeline::Make(&noop, popt).ValueOrDie();
  std::vector<countlib::pipeline::ProducerSlot> slots;
  for (size_t c = 0; c < keys.size(); ++c) {
    auto slot = pipe->AcquireProducerSlot();
    if (!slot.ok()) {
      ++out->errors;
      return;
    }
    slots.push_back(std::move(slot).ValueOrDie());
  }
  std::vector<Span>* sp = spans->Buffer();
  uint64_t submit_cpu = 0, drain_cpu = 0, failed = 0;
  for (uint64_t i = 0; i < keys[0].size(); i += kPipelineChunk) {
    if (!pipe->SetWorkerCount(0).ok()) ++failed;
    ScopedSpan submit_span(sp, "pipeline.submit", "stage.P", i, 0);
    const uint64_t s0 = ThreadCpuNs();
    for (size_t c = 0; c < keys.size(); ++c) {
      const uint64_t end = std::min<uint64_t>(i + kPipelineChunk, keys[c].size());
      for (uint64_t j = i; j < end; ++j) {
        failed += slots[c].TrySubmit(keys[c][j]).ok() ? 0 : 1;
      }
    }
    submit_cpu += ThreadCpuNs() - s0;
    submit_span.Close();
    ScopedSpan drain_span(sp, "pipeline.drain", "stage.P", i, 0);
    const uint64_t p0 = ProcessCpuNs();
    const uint64_t m0 = ThreadCpuNs();
    if (!pipe->SetWorkerCount(kWorkers).ok() || !pipe->Flush().ok()) {
      ++failed;
    }
    const uint64_t process = ProcessCpuNs() - p0;
    drain_cpu += process - std::min(process, ThreadCpuNs() - m0);
  }
  out->errors += failed;
  slots.clear();
  if (!pipe->Drain().ok()) ++out->errors;
  const double ev = static_cast<double>(events);
  out->pipeline_submit_ns_per_event = static_cast<double>(submit_cpu) / ev;
  out->pipeline_drain_ns_per_event = static_cast<double>(drain_cpu) / ev;
}

void StageStore(const WorkloadSpec& spec, uint64_t seed,
                const RecordingWriter& rec, double slowdown_ns,
                SpanLog* spans, StageCosts* out,
                std::unique_ptr<countlib::analytics::ShardedCounterStore>*
                    store_out) {
  auto store = MakeStore(spec, seed).ValueOrDie();
  countlib::analytics::CounterWriter* writer = store.get();
  std::unique_ptr<SlowWriter> slow;
  if (slowdown_ns > 0) {
    slow = std::make_unique<SlowWriter>(writer, slowdown_ns);
    writer = slow.get();
  }
  if (spec.warmup) {  // the live system was warmed the same way, untimed
    std::vector<KeyWeight> batch;
    for (uint64_t lane = 0; lane < kShards; ++lane) {
      for (uint64_t r = 0; r < spec.num_keys; ++r) {
        batch.push_back(KeyWeight{KeyOfRank(r), 1});
        if (batch.size() == 1024 || r + 1 == spec.num_keys) {
          if (!store->IncrementBatch(lane, batch.data(), batch.size()).ok()) {
            ++out->errors;
          }
          batch.clear();
        }
      }
    }
  }
  const uint64_t lanes = kShards;
  std::vector<uint64_t> cpu(lanes, 0), updates(lanes, 0), events(lanes, 0),
      errs(lanes, 0);
  std::vector<std::thread> threads;
  for (uint64_t lane = 0; lane < lanes; ++lane) {
    std::vector<Span>* sp = spans->Buffer();
    threads.emplace_back([&, lane, sp] {
      const auto& batches = rec.batches(lane);
      uint64_t n_updates = 0, n_events = 0, failed = 0;
      for (const auto& b : batches) {
        n_updates += b.size();
        for (const KeyWeight& kw : b) n_events += kw.weight;
      }
      ScopedSpan span(sp, "store.replay", "stage.S", lane, n_events);
      const uint64_t cpu0 = ThreadCpuNs();
      for (const auto& b : batches) {
        failed += writer->IncrementBatch(lane, b.data(), b.size()).ok() ? 0 : 1;
      }
      cpu[lane] = ThreadCpuNs() - cpu0;
      updates[lane] = n_updates;
      events[lane] = n_events;
      errs[lane] = failed;
    });
  }
  for (auto& t : threads) t.join();
  uint64_t total_cpu = 0;
  for (uint64_t lane = 0; lane < lanes; ++lane) {
    total_cpu += cpu[lane];
    out->replay_updates += updates[lane];
    out->replay_events += events[lane];
    out->errors += errs[lane];
  }
  out->apply_ns_per_update = static_cast<double>(total_cpu) /
                             static_cast<double>(out->replay_updates);
  out->apply_ns_per_event = static_cast<double>(total_cpu) /
                            static_cast<double>(out->replay_events);
  *store_out = std::move(store);
}

void StageCore(const WorkloadSpec& spec, uint64_t seed,
               const RecordingWriter& rec, SpanLog* spans, StageCosts* out) {
  std::vector<KeyWeight> sample;
  for (uint64_t lane = 0; lane < kShards; ++lane) {
    for (const auto& b : rec.batches(lane)) {
      for (const KeyWeight& kw : b) {
        if (sample.size() < kCoreSampleUpdates) sample.push_back(kw);
      }
    }
  }
  // One counter per distinct key, as the store keeps one slot per key.
  std::unordered_map<uint64_t, uint32_t> slot_of;
  std::vector<uint32_t> slot(sample.size());
  std::vector<std::unique_ptr<countlib::Counter>> counters;
  for (size_t i = 0; i < sample.size(); ++i) {
    auto it = slot_of.find(sample[i].key);
    if (it == slot_of.end()) {
      it = slot_of.emplace(sample[i].key,
                           static_cast<uint32_t>(counters.size()))
               .first;
      counters.push_back(countlib::MakeCounterForBits(spec.kind,
                                                      spec.state_bits, kNMax,
                                                      seed + counters.size())
                             .ValueOrDie());
      if (spec.warmup) counters.back()->IncrementMany(kConnections);
    }
    slot[i] = it->second;
  }
  std::vector<Span>* sp = spans->Buffer();
  const double n = static_cast<double>(sample.size());
  {
    ScopedSpan span(sp, "core.increment", "stage.C", 0, sample.size());
    const uint64_t cpu0 = ThreadCpuNs();
    for (size_t i = 0; i < sample.size(); ++i) {
      counters[slot[i]]->IncrementMany(sample[i].weight);
    }
    out->increment_ns = static_cast<double>(ThreadCpuNs() - cpu0) / n;
  }
  {
    countlib::BitWriter bw;
    ScopedSpan span(sp, "core.codec", "stage.C", 0, sample.size());
    const uint64_t cpu0 = ThreadCpuNs();
    for (size_t i = 0; i < sample.size(); ++i) {
      countlib::Counter* c = counters[slot[i]].get();
      bw.Reset();
      if (!c->SerializeState(&bw).ok()) ++out->errors;
      countlib::BitReader br(bw.bytes().data(), bw.bit_count());
      if (!c->DeserializeState(&br).ok()) ++out->errors;
    }
    out->codec_ns = static_cast<double>(ThreadCpuNs() - cpu0) / n;
  }
}

void StageReads(const Inputs& in,
                const countlib::analytics::ShardedCounterStore& store,
                SpanLog* spans, StageCosts* out) {
  std::vector<Span>* sp = spans->Buffer();
  for (uint64_t i = 0; i < kEstimateSamples; ++i) {
    const uint64_t key = KeyOfRank(in.reader_ranks[i % in.reader_ranks.size()]);
    ScopedSpan span(sp, "store.estimate", "stage.R", i, 0);
    const auto est = store.Estimate(key);
    if (!est.ok() && !est.status().IsNotFound()) ++out->errors;
  }
  for (uint64_t i = 0; i < kTopKSamples; ++i) {
    ScopedSpan span(sp, "store.topk", "stage.R", i, 0);
    if (!store.TopK(kTopK).ok()) ++out->errors;
  }
  const std::vector<Span> all = spans->All();
  const std::vector<double> est_us = SpanDurations(all, "store.estimate", 1e3);
  const std::vector<double> topk_ms = SpanDurations(all, "store.topk", 1e6);
  out->estimate_us_p50 = Percentile(est_us, 0.50);
  out->estimate_us_p99 = Percentile(est_us, 0.99);
  out->topk_ms_p50 = Median(topk_ms);
  out->estimate_samples = est_us.size();
  out->topk_samples = topk_ms.size();
}

}  // namespace

StageCosts RunStages(const WorkloadSpec& spec, const Inputs& in, uint64_t seed,
                     double slowdown_ns, const RecordingWriter& recorded,
                     SpanLog* spans) {
  StageCosts out;
  std::vector<std::vector<uint64_t>> keys;
  for (uint64_t c = 0; c < kConnections; ++c) {
    keys.push_back(StageKeys(in, c, kStageEventsPerConn));
  }
  const uint64_t events = kStageEventsPerConn * kConnections;
  out.stage_events = events;

  StageWire(keys[0], spans, &out);
  StagePipeline(keys, events, spans, &out);
  keys.clear();
  std::unique_ptr<countlib::analytics::ShardedCounterStore> store;
  StageStore(spec, seed, recorded, slowdown_ns, spans, &out, &store);
  StageCore(spec, seed, recorded, spans, &out);
  StageReads(in, *store, spans, &out);
  return out;
}

}  // namespace e2ebench
