// End-to-end tests for the socket ingestion front-end: EventServer +
// EventClient over real loopback sockets into a real pipeline and store.
// The store uses exact counters so "no lost updates over TCP" is
// checkable to the last unit of weight, and every suite asserts the books
// — client-side submitted == delivered + shed + lost_unacked with shed
// always 0, server-side delivered <= rx — because exact accounting is the
// subsystem's acceptance criterion, not a nice-to-have.

#include "net/client.h"
#include "net/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "stream/trace.h"
#include "util/logging.h"

namespace countlib {
namespace net {
namespace {

std::unique_ptr<analytics::ShardedCounterStore> MakeExactStore() {
  return analytics::ShardedCounterStore::Make(
             /*num_shards=*/8, CounterKind::kExact, 32,
             (uint64_t{1} << 32) - 1, /*seed=*/1)
      .ValueOrDie();
}

pipeline::PipelineOptions BaseOptions() {
  pipeline::PipelineOptions opt;
  opt.num_producers = 4;
  opt.queue_capacity = 1024;
  opt.num_workers = 2;
  return opt;
}

ClientOptions ClientFor(const EventServer& server) {
  ClientOptions copt;
  copt.port = server.port();
  return copt;
}

TEST(NetServerTest, MakeValidatesOptions) {
  auto store = MakeExactStore();
  auto pipe = pipeline::IngestPipeline::Make(store.get(), BaseOptions())
                  .ValueOrDie();
  EXPECT_FALSE(EventServer::Make(nullptr, ServerOptions()).ok());
  ServerOptions bad;
  bad.bind_address = "not-an-address";
  EXPECT_FALSE(EventServer::Make(pipe.get(), bad).ok());
}

TEST(NetServerTest, EphemeralPortAndIdempotentStop) {
  auto store = MakeExactStore();
  auto pipe = pipeline::IngestPipeline::Make(store.get(), BaseOptions())
                  .ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();
  EXPECT_GT(server->port(), 0);
  EXPECT_TRUE(server->Stop().ok());
  EXPECT_TRUE(server->Stop().ok());  // idempotent
}

TEST(NetServerTest, SingleClientRoundTripIsExact) {
  auto store = MakeExactStore();
  auto pipe = pipeline::IngestPipeline::Make(store.get(), BaseOptions())
                  .ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();

  auto client = EventClient::Connect(ClientFor(*server)).ValueOrDie();
  std::unordered_map<uint64_t, uint64_t> exact;
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint64_t key = i % 257;
    const uint64_t weight = 1 + i % 3;
    exact[key] += weight;
    ASSERT_TRUE(client->Submit(key, weight).ok());
  }
  ASSERT_TRUE(client->Close().ok());

  const ClientStats cs = client->Stats();
  EXPECT_EQ(cs.events_submitted, 10000u);
  EXPECT_EQ(cs.events_delivered, 10000u);
  EXPECT_EQ(cs.events_shed, 0u);
  EXPECT_EQ(cs.events_lost_unacked, 0u);
  EXPECT_EQ(cs.events_pending, 0u);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Drain().ok());
  for (const auto& [key, weight] : exact) {
    EXPECT_EQ(store->Estimate(key).ValueOrDie(), static_cast<double>(weight))
        << "key " << key;
  }
  const ServerStats ss = server->Stats();
  EXPECT_EQ(ss.connections_accepted, 1u);
  EXPECT_EQ(ss.events_rx, 10000u);
  EXPECT_EQ(ss.events_delivered, 10000u);
  EXPECT_EQ(ss.decode_errors, 0u);
  EXPECT_EQ(ss.partial_frames, 0u);
}

TEST(NetServerTest, ClientValidatesArguments) {
  auto store = MakeExactStore();
  auto pipe = pipeline::IngestPipeline::Make(store.get(), BaseOptions())
                  .ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();
  auto client = EventClient::Connect(ClientFor(*server)).ValueOrDie();
  EXPECT_TRUE(client->Submit(1, 0).IsInvalidArgument());
  ASSERT_TRUE(client->Close().ok());
  EXPECT_TRUE(client->Submit(1, 1).IsFailedPrecondition());
  EXPECT_TRUE(client->Flush().IsFailedPrecondition());
  EXPECT_TRUE(client->Close().ok());  // idempotent
}

TEST(NetServerTest, RequestedWindowIsHonored) {
  auto store = MakeExactStore();
  auto pipe = pipeline::IngestPipeline::Make(store.get(), BaseOptions())
                  .ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();
  ClientOptions copt = ClientFor(*server);
  copt.requested_window = 16;
  auto client = EventClient::Connect(copt).ValueOrDie();
  const ClientStats cs = client->Stats();
  EXPECT_GE(cs.credits_available, 1u);
  EXPECT_LE(cs.credits_available, 16u);
  ASSERT_TRUE(client->Close().ok());
}

TEST(NetServerTest, WindowIsSizedFromRingHeadroom) {
  // The lossless headroom is the slot's ring: an idle slot's first window
  // is exactly queue_capacity, the most any window can be.
  auto store = MakeExactStore();
  pipeline::PipelineOptions opt = BaseOptions();
  opt.queue_capacity = 64;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  ASSERT_EQ(pipe->queue_capacity(), 64u);
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();
  auto client = EventClient::Connect(ClientFor(*server)).ValueOrDie();
  EXPECT_EQ(client->Stats().credits_available, pipe->queue_capacity());
  ASSERT_TRUE(client->Close().ok());
}

TEST(NetServerTest, RefusesWhenEverySlotIsLeased) {
  auto store = MakeExactStore();
  pipeline::PipelineOptions opt = BaseOptions();
  opt.num_producers = 1;  // one slot: the second connection must bounce
  opt.num_workers = 1;    // and so one worker: Make rejects more
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();

  auto first = EventClient::Connect(ClientFor(*server)).ValueOrDie();
  ClientOptions copt = ClientFor(*server);
  copt.max_reconnect_attempts = 1;
  auto second = EventClient::Connect(copt);
  EXPECT_FALSE(second.ok());

  // Releasing the slot (closing the first client) re-admits.
  ASSERT_TRUE(first->Close().ok());
  copt.max_reconnect_attempts = 20;
  copt.backoff_max_ms = 100;
  auto third = EventClient::Connect(copt);
  EXPECT_TRUE(third.ok());
  ASSERT_TRUE(third.ValueOrDie()->Close().ok());
  EXPECT_GE(server->Stats().connections_refused, 1u);
}

TEST(NetServerTest, LoopbackMillionEventsExactBooks) {
  // The acceptance-criterion run: >= 1M events over loopback through
  // multiple connections, with delivered == submitted exactly and every
  // weight landing in the store.
  constexpr uint64_t kEvents = 1 << 20;  // 1,048,576
  constexpr uint64_t kConnections = 4;

  auto store = MakeExactStore();
  pipeline::PipelineOptions opt = BaseOptions();
  opt.num_producers = kConnections;
  opt.enable_metrics = false;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();

  auto trace =
      stream::Trace::GenerateZipf(/*num_keys=*/4096, /*skew=*/1.0, kEvents,
                                  /*seed=*/99)
          .ValueOrDie();
  const auto& events = trace.events();

  std::vector<ClientStats> per_conn(kConnections);
  std::vector<std::thread> threads;
  for (uint64_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto client = EventClient::Connect(ClientFor(*server)).ValueOrDie();
      for (uint64_t i = c; i < events.size(); i += kConnections) {
        COUNTLIB_CHECK_OK(client->Submit(events[i].key, events[i].weight));
      }
      COUNTLIB_CHECK_OK(client->Close());
      per_conn[c] = client->Stats();
    });
  }
  for (auto& t : threads) t.join();

  uint64_t submitted = 0, delivered = 0, shed = 0, lost = 0, pending = 0;
  for (const auto& s : per_conn) {
    submitted += s.events_submitted;
    delivered += s.events_delivered;
    shed += s.events_shed;
    lost += s.events_lost_unacked;
    pending += s.events_pending;
  }
  EXPECT_EQ(submitted, kEvents);
  EXPECT_EQ(delivered + shed + lost, submitted);  // the books, exactly
  EXPECT_EQ(shed, 0u);   // the server never sheds
  EXPECT_EQ(lost, 0u);   // clean closes: nothing unacked
  EXPECT_EQ(pending, 0u);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(pipe->Stats().events_applied, kEvents);

  // Ground truth to the last unit of weight.
  for (const auto& [key, weight] : trace.ExactCounts()) {
    ASSERT_EQ(store->Estimate(key).ValueOrDie(), static_cast<double>(weight))
        << "key " << key;
  }
  const ServerStats ss = server->Stats();
  EXPECT_EQ(ss.events_rx, kEvents);
  EXPECT_EQ(ss.events_delivered, kEvents);
  EXPECT_EQ(ss.decode_errors, 0u);
  EXPECT_EQ(ss.partial_frames, 0u);
  EXPECT_EQ(ss.connections_active, 0u);
}

// The serving path is observable: with metrics on, events that arrive
// over the wire fill the pipeline's submit→apply histogram at its 1-in-64
// rate. The server submits each frame from the connection's own thread,
// which is fresh, so its per-thread sampling counter starts at 0 and
// N = 64·k events carry exactly k stamps.
TEST(NetServerTest, ServingPathRecordsSubmitApplyLatency) {
  constexpr uint64_t kEvents = 64 * 16;
  auto store = MakeExactStore();
  pipeline::PipelineOptions opt = BaseOptions();
  opt.enable_metrics = true;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), opt).ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();
  auto client = EventClient::Connect(ClientFor(*server)).ValueOrDie();
  for (uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(client->Submit(i % 97, 1).ok());
  }
  ASSERT_TRUE(client->Flush().ok());
  ASSERT_TRUE(pipe->Flush().ok());
  EXPECT_EQ(client->Stats().events_delivered, kEvents);
  EXPECT_EQ(pipe->Stats().events_applied, kEvents);
  const obs::HistogramSnapshot lat = obs::GlobalSnapshot().histograms.at(
      "countlib_pipeline_submit_apply_latency_ns");
  EXPECT_EQ(lat.count, kEvents / 64);
  ASSERT_TRUE(client->Close().ok());
  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Drain().ok());
}

TEST(NetServerTest, ServerStopSurfacesAsClientError) {
  auto store = MakeExactStore();
  auto pipe = pipeline::IngestPipeline::Make(store.get(), BaseOptions())
                  .ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();
  ClientOptions copt = ClientFor(*server);
  copt.max_reconnect_attempts = 2;
  copt.backoff_max_ms = 5;
  copt.ack_timeout_ms = 500;
  auto client = EventClient::Connect(copt).ValueOrDie();
  ASSERT_TRUE(server->Stop().ok());

  // Eventually every reconnect attempt fails; the books still balance.
  Status st = Status::OK();
  for (uint64_t i = 0; i < 100000 && st.ok(); ++i) {
    st = client->Submit(i, 1);
  }
  EXPECT_FALSE(st.ok());
  const ClientStats cs = client->Stats();
  EXPECT_EQ(cs.events_submitted,
            cs.events_delivered + cs.events_shed + cs.events_lost_unacked +
                cs.events_pending);
  ASSERT_TRUE(pipe->Drain().ok());
}

// A frame with a zero-weight record is a protocol error, rejected whole:
// the records before the bad one must not be applied either, or the
// pipeline's events_applied would run ahead of what the server delivered
// and acked.
TEST(NetServerTest, ZeroWeightRecordRejectsTheWholeFrame) {
  auto store = MakeExactStore();
  auto pipe = pipeline::IngestPipeline::Make(store.get(), BaseOptions())
                  .ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();
  const int fd = ConnectTcp("127.0.0.1", server->port(), 2000).ValueOrDie();
  uint64_t got = 0;
  {
    uint8_t frame[kFrameHeaderSize + kHelloBodySize];
    FrameHeader h;
    h.type = FrameType::kHello;
    h.payload_len = kHelloBodySize;
    h.seq = 1;
    EncodeFrameHeader(h, frame);
    EncodeHelloBody(HelloBody{}, frame + kFrameHeaderSize);
    ASSERT_TRUE(SendAll(fd, frame, sizeof(frame)).ok());
    uint8_t ack[kFrameHeaderSize + kHelloAckBodySize];
    ASSERT_TRUE(ReadFull(fd, ack, sizeof(ack), 2000, &got).ok());
  }
  {
    const EventRecord records[3] = {{5, 1}, {6, 0}, {7, 1}};
    const uint64_t payload_len = EventBatchPayloadSize(3);
    std::vector<uint8_t> frame(kFrameHeaderSize + payload_len);
    FrameHeader h;
    h.type = FrameType::kEventBatch;
    h.payload_len = static_cast<uint32_t>(payload_len);
    h.seq = 2;
    EncodeFrameHeader(h, frame.data());
    EncodeEventBatch(records, 3, frame.data() + kFrameHeaderSize);
    ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()).ok());
  }
  // No ack: the server closes the connection.
  uint8_t ack[kFrameHeaderSize + kAckBodySize];
  got = 0;
  EXPECT_TRUE(ReadFull(fd, ack, sizeof(ack), 2000, &got).IsIOError());
  EXPECT_EQ(got, 0u);
  CloseFd(fd);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Flush().ok());
  const ServerStats ss = server->Stats();
  EXPECT_EQ(ss.decode_errors, 1u);
  EXPECT_EQ(ss.events_delivered, 0u);
  EXPECT_EQ(pipe->Stats().events_applied, 0u);
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(pipe->Stats().events_applied, 0u);
}

}  // namespace
}  // namespace net
}  // namespace countlib
