// Chaos tests for the socket front-end: the ways a deployment actually
// hurts — a slow consumer (does flow control bound buffering, or does the
// server buffer without limit?), a client dying mid-frame (is the slot
// recycled and are the books still exact?), a reconnect storm (does
// anything leak — fds, slots, threads?), and a peer that stalls
// mid-frame (does every wait end?). Each test asserts the accounting
// invariants afterwards, because surviving chaos without exact books is
// not surviving.

#include <dirent.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "pipeline/ingest_pipeline.h"
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

// Open fds in this process, from /proc/self/fd. The DIR* itself adds one
// entry, but the bias is identical across calls, so deltas are exact.
uint64_t CountOpenFds() {
  DIR* dir = opendir("/proc/self/fd");
  COUNTLIB_CHECK(dir != nullptr);
  uint64_t n = 0;
  while (struct dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

// Milliseconds since `start`, on the steady clock.
int64_t MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Polls `pred` (a cheap, thread-safe snapshot) until true or ~5s.
template <typename Pred>
bool EventuallyTrue(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// A raw listener standing in for a server that stalls mid-frame: it
// accepts one connection, reads its hello, runs `script` on it, then holds
// the socket open until the peer closes it or 5 s pass.
class StallingServer {
 public:
  explicit StallingServer(std::function<void(int)> script)
      : listen_fd_(ListenTcp("127.0.0.1", 0, 1).ValueOrDie()),
        port_(LocalPort(listen_fd_).ValueOrDie()),
        thread_([this, script = std::move(script)] {
          const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
          if (fd < 0) return;
          uint8_t hello[kFrameHeaderSize + kHelloBodySize];
          uint64_t got = 0;
          COUNTLIB_CHECK_OK(ReadFull(fd, hello, sizeof(hello), 2000, &got));
          script(fd);
          (void)ReadFull(fd, hello, 1, /*timeout_ms=*/5000, &got).ok();
          CloseFd(fd);
        }) {}

  ~StallingServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // ends an accept that never got a peer
    thread_.join();
    CloseFd(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  int listen_fd_;
  uint16_t port_;
  std::thread thread_;
};

// A hello-ack granting 1024 credits in frames of at most
// `max_frame_events`.
void SendHelloAck(int fd, uint32_t max_frame_events) {
  uint8_t ack[kFrameHeaderSize + kHelloAckBodySize];
  FrameHeader h;
  h.type = FrameType::kHelloAck;
  h.payload_len = kHelloAckBodySize;
  h.seq = 1;
  EncodeFrameHeader(h, ack);
  HelloAckBody body;
  body.credit_grant_total = 1024;
  body.max_frame_events = max_frame_events;
  EncodeHelloAckBody(body, ack + kFrameHeaderSize);
  COUNTLIB_CHECK_OK(SendAll(fd, ack, sizeof(ack)));
}

// The first 5 bytes of a valid 24-byte frame header of `type`.
void SendFiveHeaderBytes(int fd, FrameType type, uint32_t payload_len) {
  uint8_t header[kFrameHeaderSize];
  FrameHeader h;
  h.type = type;
  h.payload_len = payload_len;
  h.seq = 2;
  EncodeFrameHeader(h, header);
  COUNTLIB_CHECK_OK(SendAll(fd, header, 5));
}

TEST(NetChaosTest, HandshakeStalledMidFrameTimesOut) {
  // The hello-ack stops 5 bytes into its header. Connect's 2 s connect
  // timeout bounds each wait for more bytes, so the one attempt fails
  // with kIOError instead of waiting for the server to close.
  StallingServer server([](int fd) {
    SendFiveHeaderBytes(fd, FrameType::kHelloAck, kHelloAckBodySize);
  });
  ClientOptions copt;
  copt.port = server.port();
  copt.max_reconnect_attempts = 0;
  const auto start = std::chrono::steady_clock::now();
  const Status st = EventClient::Connect(copt).status();
  EXPECT_LT(MillisSince(start), 3000);
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(NetChaosTest, HelloAckFrameCapOutsideTheProtocolFailsConnect) {
  // The client sizes its frame buffers from the hello-ack's cap, so a cap
  // of 0 or above kMaxFrameEvents is a protocol error, not a value to
  // clamp or to allocate for.
  for (const uint64_t cap : {uint64_t{0}, kMaxFrameEvents + 1}) {
    StallingServer server([cap](int fd) {
      SendHelloAck(fd, static_cast<uint32_t>(cap));
    });
    ClientOptions copt;
    copt.port = server.port();
    copt.max_reconnect_attempts = 0;
    const Status st = EventClient::Connect(copt).status();
    EXPECT_TRUE(st.IsIOError()) << "cap " << cap << ": " << st.ToString();
  }
}

TEST(NetChaosTest, AckStalledMidFrameTimesOutTheFlush) {
  // A good handshake, then the first frame's ack stops 5 bytes in. Flush
  // waits at most ack_timeout_ms for each further byte, declares the
  // connection dead, and books the frame's events as lost.
  constexpr uint64_t kEvents = 10;
  StallingServer server([](int fd) {
    SendHelloAck(fd, /*max_frame_events=*/4096);
    std::vector<uint8_t> frame(kFrameHeaderSize +
                               EventBatchPayloadSize(kEvents));
    uint64_t got = 0;
    COUNTLIB_CHECK_OK(ReadFull(fd, frame.data(), frame.size(), 2000, &got));
    SendFiveHeaderBytes(fd, FrameType::kAck, kAckBodySize);
  });
  ClientOptions copt;
  copt.port = server.port();
  copt.ack_timeout_ms = 500;
  copt.max_reconnect_attempts = 0;
  auto client = EventClient::Connect(copt).ValueOrDie();
  for (uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(client->Submit(i, 1).ok());
  }
  const auto start = std::chrono::steady_clock::now();
  const Status st = client->Flush();
  EXPECT_LT(MillisSince(start), 2000);
  EXPECT_TRUE(st.ok()) << st.ToString();  // settled books, with a loss
  const ClientStats cs = client->Stats();
  EXPECT_EQ(cs.events_lost_unacked, kEvents);
  EXPECT_EQ(cs.events_delivered, 0u);
  EXPECT_EQ(cs.events_pending, 0u);
  ASSERT_TRUE(client->Close().ok());
}

TEST(NetChaosTest, StopEndsAReadBlockedMidFrame) {
  // A raw connection reads its hello-ack (frames of half the 1024-slot
  // ring), then sends 10 of a frame header's 24 bytes and goes quiet, so
  // its connection thread is blocked in recv mid-frame. Stop's shutdown
  // ends that read at once, and the begun frame counts as partial.
  auto store = MakeExactStore();
  pipeline::PipelineOptions popt;
  popt.num_producers = 1;
  popt.queue_capacity = 1024;
  popt.num_workers = 1;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), popt).ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();

  const int fd = ConnectTcp("127.0.0.1", server->port(), 2000).ValueOrDie();
  uint8_t hello[kFrameHeaderSize + kHelloBodySize];
  FrameHeader h;
  h.type = FrameType::kHello;
  h.payload_len = kHelloBodySize;
  h.seq = 1;
  EncodeFrameHeader(h, hello);
  EncodeHelloBody(HelloBody{}, hello + kFrameHeaderSize);
  ASSERT_TRUE(SendAll(fd, hello, sizeof(hello)).ok());
  uint8_t ack[kFrameHeaderSize + kHelloAckBodySize];
  uint64_t got = 0;
  ASSERT_TRUE(ReadFull(fd, ack, sizeof(ack), 2000, &got).ok());
  HelloAckBody hello_ack;
  ASSERT_TRUE(
      DecodeHelloAckBody(ack + kFrameHeaderSize, kHelloAckBodySize, &hello_ack)
          .ok());
  EXPECT_EQ(hello_ack.max_frame_events, 512u);

  uint8_t header[kFrameHeaderSize];
  h.type = FrameType::kEventBatch;
  h.payload_len = static_cast<uint32_t>(EventBatchPayloadSize(1));
  h.seq = 2;
  EncodeFrameHeader(h, header);
  ASSERT_TRUE(SendAll(fd, header, 10).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(server->Stop().ok());
  EXPECT_LT(MillisSince(start), 1000);
  const ServerStats ss = server->Stats();
  EXPECT_EQ(ss.connections_active, 0u);
  EXPECT_EQ(ss.partial_frames, 1u);
  EXPECT_EQ(ss.events_rx, 0u);
  CloseFd(fd);
  ASSERT_TRUE(pipe->Drain().ok());
}

TEST(NetChaosTest, SlowConsumerStallsTheClientInsteadOfBuffering) {
  // Pipeline paused = the slowest possible consumer. The credit window
  // must pin the client at ring capacity + the liveness floor; the server
  // holds exactly one frame buffer, so events received can never outrun
  // credits granted. The first window fills the ring, and its ack grants
  // the one floor credit; that event's SubmitBatch parks on the full ring,
  // so no further ack, and no further credit, goes out.
  constexpr uint64_t kRing = 64;
  constexpr uint64_t kTotal = 5000;

  auto store = MakeExactStore();
  pipeline::PipelineOptions popt;
  popt.num_producers = 1;
  popt.queue_capacity = kRing;
  popt.num_workers = 1;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), popt).ValueOrDie();
  ASSERT_TRUE(pipe->SetWorkerCount(0).ok());  // pause: nothing drains

  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();

  ClientStats cs;
  std::thread producer([&] {
    ClientOptions copt;
    copt.port = server->port();
    auto client = EventClient::Connect(copt).ValueOrDie();
    for (uint64_t i = 0; i < kTotal; ++i) {
      COUNTLIB_CHECK_OK(client->Submit(i % 97, 1));
    }
    COUNTLIB_CHECK_OK(client->Close());
    cs = client->Stats();
  });

  // Wait until the first full window has landed in the ring, give the
  // client every chance to overrun, then check it could not: with the
  // pipeline paused the server can take in at most the ring plus the one
  // floor-credit event.
  ASSERT_TRUE(EventuallyTrue(
      [&] { return pipe->Stats().events_submitted == kRing; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const ServerStats paused = server->Stats();
  EXPECT_LE(paused.events_rx, kRing + 1);
  EXPECT_EQ(pipe->Stats().events_submitted, kRing);
  EXPECT_GE(paused.credit_stalls, 1u);  // acks went out at the floor

  // Resume; the stalled client must finish losslessly.
  ASSERT_TRUE(pipe->SetWorkerCount(1).ok());
  producer.join();

  EXPECT_EQ(cs.events_submitted, kTotal);
  EXPECT_EQ(cs.events_delivered, kTotal);  // nothing shed
  EXPECT_EQ(cs.events_shed, 0u);
  EXPECT_EQ(cs.events_lost_unacked, 0u);
  EXPECT_EQ(cs.events_pending, 0u);
  EXPECT_GE(cs.credit_stalls, 1u);  // it did park on credits

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(pipe->Stats().events_applied, kTotal);
}

TEST(NetChaosTest, ClientDeathMidFrameRecyclesTheSlotExactly) {
  // A raw socket speaks just enough protocol to die at the worst moment:
  // after a complete acked batch, mid-way through the next frame's
  // payload. The partial frame must be discarded (counted), the slot
  // released for the next tenant, and the books must cover exactly the
  // complete frames.
  auto store = MakeExactStore();
  pipeline::PipelineOptions popt;
  popt.num_producers = 1;  // the dead client's slot is the only slot
  popt.queue_capacity = 1024;
  popt.num_workers = 1;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), popt).ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();

  const int fd = ConnectTcp("127.0.0.1", server->port(), 2000).ValueOrDie();
  uint64_t got = 0;

  // Handshake by hand.
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
    FrameHeader ah;
    ASSERT_TRUE(DecodeFrameHeader(ack, kFrameHeaderSize, 64, &ah).ok());
    ASSERT_EQ(ah.type, FrameType::kHelloAck);
    HelloAckBody body;
    ASSERT_TRUE(
        DecodeHelloAckBody(ack + kFrameHeaderSize, kHelloAckBodySize, &body)
            .ok());
    ASSERT_GE(body.credit_grant_total, 1u);
  }

  // One complete, well-behaved batch of 3 events — and drain its ack so
  // the eventual close() is an orderly FIN, not an RST that could discard
  // the partial frame already in flight.
  {
    EventRecord records[3] = {{5, 10}, {6, 20}, {7, 30}};
    const uint64_t payload_len = EventBatchPayloadSize(3);
    std::vector<uint8_t> frame(kFrameHeaderSize + payload_len);
    FrameHeader h;
    h.type = FrameType::kEventBatch;
    h.payload_len = static_cast<uint32_t>(payload_len);
    h.seq = 2;
    EncodeFrameHeader(h, frame.data());
    EncodeEventBatch(records, 3, frame.data() + kFrameHeaderSize);
    ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()).ok());

    uint8_t ack[kFrameHeaderSize + kAckBodySize];
    ASSERT_TRUE(ReadFull(fd, ack, sizeof(ack), 2000, &got).ok());
    AckBody body;
    ASSERT_TRUE(
        DecodeAckBody(ack + kFrameHeaderSize, kAckBodySize, &body).ok());
    EXPECT_EQ(body.acked_seq, 2u);
    EXPECT_EQ(body.delivered_total, 3u);
    EXPECT_EQ(body.shed_total, 0u);  // the server never sheds
  }

  // A valid header promising 8 records, then die 12 bytes into the
  // payload.
  {
    std::vector<uint8_t> frame(kFrameHeaderSize + 12);
    FrameHeader h;
    h.type = FrameType::kEventBatch;
    h.payload_len = static_cast<uint32_t>(EventBatchPayloadSize(8));
    h.seq = 3;
    EncodeFrameHeader(h, frame.data());
    ASSERT_TRUE(SendAll(fd, frame.data(), frame.size()).ok());
  }
  CloseFd(fd);

  // The connection must fully unwind: entry reaped, slot back in the
  // registry.
  ASSERT_TRUE(EventuallyTrue(
      [&] { return server->Stats().connections_active == 0; }));
  const ServerStats after = server->Stats();
  EXPECT_EQ(after.partial_frames, 1u);
  EXPECT_EQ(after.decode_errors, 0u);  // death is not corruption
  EXPECT_EQ(after.events_rx, 3u);      // only the complete frame counts

  // The recycled slot serves the next tenant (Connect retries while the
  // slot drains).
  ClientOptions copt;
  copt.port = server->port();
  copt.max_reconnect_attempts = 50;
  copt.backoff_max_ms = 50;
  auto client = EventClient::Connect(copt).ValueOrDie();
  ASSERT_TRUE(client->Submit(8, 40).ok());
  ASSERT_TRUE(client->Close().ok());

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Drain().ok());
  // Books: the 3 complete-frame events plus the new tenant's 1 — the
  // partial frame contributed nothing.
  EXPECT_EQ(pipe->Stats().events_applied, 4u);
  EXPECT_EQ(store->Estimate(5).ValueOrDie(), 10.0);
  EXPECT_EQ(store->Estimate(6).ValueOrDie(), 20.0);
  EXPECT_EQ(store->Estimate(7).ValueOrDie(), 30.0);
  EXPECT_EQ(store->Estimate(8).ValueOrDie(), 40.0);
}

TEST(NetChaosTest, ReconnectStormLeaksNoFdsOrSlots) {
  // More churning clients than slots: every connect either lands a slot
  // or is refused and retried with backoff. Afterwards nothing may leak —
  // fd count back to baseline, both slots acquirable, zero connections
  // active — and every submitted event must be applied.
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kRounds = 12;
  constexpr uint64_t kPerRound = 10;

  auto store = MakeExactStore();
  pipeline::PipelineOptions popt;
  popt.num_producers = 2;  // half the storm is always being refused
  popt.queue_capacity = 256;
  popt.num_workers = 1;
  auto pipe = pipeline::IngestPipeline::Make(store.get(), popt).ValueOrDie();
  auto server = EventServer::Make(pipe.get(), ServerOptions()).ValueOrDie();

  const uint64_t fd_baseline = CountOpenFds();

  std::atomic<uint64_t> delivered{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ClientOptions copt;
      copt.port = server->port();
      copt.max_reconnect_attempts = 200;
      copt.backoff_max_ms = 20;
      for (uint64_t round = 0; round < kRounds; ++round) {
        auto client = EventClient::Connect(copt).ValueOrDie();
        for (uint64_t i = 0; i < kPerRound; ++i) {
          COUNTLIB_CHECK_OK(client->Submit(/*key=*/3, /*weight=*/1));
        }
        COUNTLIB_CHECK_OK(client->Close());
        const ClientStats s = client->Stats();
        COUNTLIB_CHECK_EQ(s.events_lost_unacked, 0u);
        delivered.fetch_add(s.events_delivered, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();

  constexpr uint64_t kTotal = kThreads * kRounds * kPerRound;
  EXPECT_EQ(delivered.load(std::memory_order_relaxed), kTotal);

  // Unwind: no live connections, no leased slots, no stray fds (the
  // accept thread reaps finished connections on its poll cadence).
  ASSERT_TRUE(EventuallyTrue(
      [&] { return server->Stats().connections_active == 0; }));
  ASSERT_TRUE(
      EventuallyTrue([&] { return pipe->Stats().slots_in_use == 0; }));
  EXPECT_TRUE(EventuallyTrue([&] { return CountOpenFds() <= fd_baseline; }))
      << "fd leak: " << CountOpenFds() << " open vs baseline "
      << fd_baseline;

  // Both slots must be simultaneously acquirable again over the wire.
  ClientOptions copt;
  copt.port = server->port();
  copt.max_reconnect_attempts = 50;
  copt.backoff_max_ms = 50;
  auto a = EventClient::Connect(copt).ValueOrDie();
  auto b = EventClient::Connect(copt).ValueOrDie();
  ASSERT_TRUE(a->Close().ok());
  ASSERT_TRUE(b->Close().ok());

  const ServerStats ss = server->Stats();
  EXPECT_GE(ss.connections_accepted, kThreads * kRounds + 2);
  EXPECT_EQ(ss.events_rx, kTotal);
  EXPECT_EQ(ss.partial_frames, 0u);
  EXPECT_EQ(ss.decode_errors, 0u);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(pipe->Drain().ok());
  EXPECT_EQ(pipe->Stats().events_applied, kTotal);
  EXPECT_EQ(store->Estimate(3).ValueOrDie(), static_cast<double>(kTotal));
}

}  // namespace
}  // namespace net
}  // namespace countlib
