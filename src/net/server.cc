#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "net/credit.h"
#include "net/socket_util.h"
#include "util/logging.h"

namespace countlib {
namespace net {
namespace {

// Accept-poll slice: bounds how long a Stop request or a finished
// connection waits for the next reap pass.
constexpr int kAcceptPollMs = 250;

constexpr int kListenBacklog = 64;

}  // namespace

Result<std::unique_ptr<EventServer>> EventServer::Make(
    pipeline::IngestPipeline* pipeline, const ServerOptions& options) {
  if (pipeline == nullptr) {
    return Status::InvalidArgument("EventServer: pipeline must be non-null");
  }
  std::unique_ptr<EventServer> server(new EventServer(pipeline));
  COUNTLIB_ASSIGN_OR_RETURN(
      server->listen_fd_,
      ListenTcp(options.bind_address, options.port, kListenBacklog));
  COUNTLIB_ASSIGN_OR_RETURN(server->port_, LocalPort(server->listen_fd_));
  if (::pipe2(server->wake_pipe_, O_CLOEXEC) != 0) {
    return Status::IOError("EventServer: pipe2 failed");
  }
  server->RegisterMetrics();
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

EventServer::EventServer(pipeline::IngestPipeline* pipeline)
    : pipeline_(pipeline),
      max_frame_events_(
          std::min(pipeline->queue_capacity() / 2, kMaxFrameEvents)) {}

EventServer::~EventServer() {
  const Status st = Stop();
  if (!st.ok()) {
    COUNTLIB_LOG(Error) << "EventServer::~EventServer: stop failed: "
                        << st.ToString();
  }
}

void EventServer::RegisterMetrics() {
  obs::Registry& reg = obs::Registry::Default();
  std::vector<obs::Registration>& rs = registrations_;
  rs.push_back(reg.RegisterCounter("countlib_net_connections_total",
                                   &connections_total_));
  rs.push_back(reg.RegisterCounter("countlib_net_connections_refused_total",
                                   &connections_refused_));
  rs.push_back(reg.RegisterCounter("countlib_net_frames_rx_total",
                                   &frames_rx_));
  rs.push_back(reg.RegisterCounter("countlib_net_frames_tx_total",
                                   &frames_tx_));
  rs.push_back(reg.RegisterCounter("countlib_net_bytes_rx_total", &bytes_rx_));
  rs.push_back(reg.RegisterCounter("countlib_net_bytes_tx_total", &bytes_tx_));
  rs.push_back(reg.RegisterCounter("countlib_net_events_rx_total",
                                   &events_rx_));
  rs.push_back(reg.RegisterCounter("countlib_net_events_delivered_total",
                                   &events_delivered_));
  rs.push_back(reg.RegisterCounter("countlib_net_decode_errors_total",
                                   &decode_errors_));
  rs.push_back(reg.RegisterCounter("countlib_net_partial_frames_total",
                                   &partial_frames_));
  rs.push_back(reg.RegisterCounter("countlib_net_credit_stalls_total",
                                   &credit_stalls_));
  // Gauge callback runs under the registry mutex at sample time; it
  // captures `this`, which is safe because registrations_ dies before any
  // other member.
  rs.push_back(reg.RegisterGauge("countlib_net_connections", [this] {
    // mo: relaxed — freestanding gauge cell; nothing is ordered against it.
    return static_cast<double>(
        active_conns_.load(std::memory_order_relaxed));
  }));
}

Status EventServer::Stop() {
  // mo: seq_cst exchange — the single stop latch; pairs with the relaxed
  // loads in the accept loop, whose poll slice bounds how stale they can
  // be.
  if (stop_.exchange(true)) return Status::OK();  // already stopped
  // Wake the accept poll, then join it so no new connections spawn while
  // the registry is being torn down.
  const uint8_t one = 1;
  (void)!::write(wake_pipe_[1], &one, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Shut every live connection's socket down and extract the registry
  // under the lock; join outside it. The shutdown() is what ends each
  // connection: its thread's blocked recv returns 0 (a frame it had begun
  // counts as partial) and a blocked send fails.
  std::vector<std::unique_ptr<Conn>> extracted;
  {
    MutexLock lock(&conns_mu_);
    extracted.reserve(conns_.size());
    for (auto& entry : conns_) {
      if (entry.second->fd >= 0) {
        ::shutdown(entry.second->fd, SHUT_RDWR);
      }
      extracted.push_back(std::move(entry.second));
    }
    conns_.clear();
  }
  for (auto& conn : extracted) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  return Status::OK();
}

ServerStats EventServer::Stats() const {
  ServerStats s;
  s.connections_accepted = connections_total_.Value();
  s.connections_refused = connections_refused_.Value();
  // mo: relaxed — gauge snapshot; monotonicity is not required of it.
  s.connections_active = active_conns_.load(std::memory_order_relaxed);
  s.frames_rx = frames_rx_.Value();
  s.frames_tx = frames_tx_.Value();
  s.bytes_rx = bytes_rx_.Value();
  s.bytes_tx = bytes_tx_.Value();
  s.events_rx = events_rx_.Value();
  s.events_delivered = events_delivered_.Value();
  s.decode_errors = decode_errors_.Value();
  s.partial_frames = partial_frames_.Value();
  s.credit_stalls = credit_stalls_.Value();
  return s;
}

void EventServer::ReapFinished() {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    MutexLock lock(&conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->done) {
        finished.push_back(std::move(it->second));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // A done entry's thread is past its last shared access; join outside
  // the lock returns almost immediately.
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void EventServer::AcceptLoop() {
  // mo: relaxed — the poll slice bounds staleness; Stop's wake-pipe write
  // makes the latch visible on the very next poll return anyway.
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(pfds, 2, kAcceptPollMs);
    ReapFinished();
    if (rc < 0) {
      if (errno == EINTR) continue;
      COUNTLIB_LOG(Error) << "EventServer: accept poll failed; stopping "
                             "accepts";
      break;
    }
    // mo: relaxed — same slice-bounded latch as the loop condition.
    if (stop_.load(std::memory_order_relaxed)) break;
    if (rc == 0 || (pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    // The slot registry is the admission gate: it bounds the connection
    // threads at the pipeline's producer slots.
    auto slot_result = pipeline_->TryAcquireProducerSlot();
    if (!slot_result.ok()) {
      // No free drained slot (or the pipeline is draining): refuse at the
      // door — the client sees an immediate close and retries with
      // backoff, the wire form of the registry's kPending.
      connections_refused_.Add(1);
      CloseFd(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_total_.Add(1);
    // mo: relaxed — gauge cell, decremented by the connection thread.
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    raw->fd = fd;
    MutexLock lock(&conns_mu_);
    raw->thread = std::thread(
        [this, raw, slot = std::move(slot_result).ValueOrDie()]() mutable {
          ConnectionLoop(raw, std::move(slot));
        });
    conns_.emplace(next_conn_id_++, std::move(conn));
  }
}

void EventServer::ConnectionLoop(Conn* conn, pipeline::ProducerSlot slot) {
  RunConnection(conn->fd, &slot);
  // Release the lease before touching the registry so a waiting acceptor
  // can re-issue the slot without waiting on our bookkeeping.
  slot.Release();
  {
    MutexLock lock(&conns_mu_);
    CloseFd(conn->fd);
    conn->fd = -1;
    conn->done = true;
  }
  // mo: relaxed — gauge cell paired with the accept-side increment.
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

Status EventServer::ReadFrame(int fd, uint8_t* buf, FrameHeader* header) {
  uint64_t got = 0;
  Status st = ReadFull(fd, buf, kFrameHeaderSize, /*timeout_ms=*/-1, &got);
  if (!st.ok()) {
    if (st.IsIOError() && got > 0) partial_frames_.Add(1);
    return st;
  }
  st = DecodeFrameHeader(buf, kFrameHeaderSize,
                         EventBatchPayloadSize(max_frame_events_), header);
  if (!st.ok()) {
    decode_errors_.Add(1);
    return st;
  }
  if (header->payload_len > 0) {
    st = ReadFull(fd, buf + kFrameHeaderSize, header->payload_len,
                  /*timeout_ms=*/-1, &got);
    if (!st.ok()) {
      // The header promised a payload that never arrived: mid-frame death.
      if (st.IsIOError()) partial_frames_.Add(1);
      return st;
    }
  }
  frames_rx_.Add(1);
  bytes_rx_.Add(kFrameHeaderSize + header->payload_len);
  return Status::OK();
}

Status EventServer::SendFrame(int fd, FrameType type, uint64_t seq,
                              const uint8_t* body, uint64_t body_len,
                              uint8_t* scratch) {
  FrameHeader header;
  header.type = type;
  header.payload_len = static_cast<uint32_t>(body_len);
  header.seq = seq;
  EncodeFrameHeader(header, scratch);
  for (uint64_t i = 0; i < body_len; ++i) {
    scratch[kFrameHeaderSize + i] = body[i];
  }
  COUNTLIB_RETURN_NOT_OK(SendAll(fd, scratch, kFrameHeaderSize + body_len));
  frames_tx_.Add(1);
  bytes_tx_.Add(kFrameHeaderSize + body_len);
  return Status::OK();
}

uint64_t EventServer::CreditTargetForSlot(const pipeline::ProducerSlot& slot,
                                          uint64_t effective_window) {
  const uint64_t capacity = pipeline_->queue_capacity();
  const uint64_t depth = slot.QueueDepth();
  const uint64_t ring_headroom = depth >= capacity ? 0 : capacity - depth;
  if (ring_headroom == 0) {
    // The refill is about to clamp to the liveness floor: the client will
    // park on its last credit — the wire-side analogue of a producer
    // parking on the not-full eventcount.
    credit_stalls_.Add(1);
  }
  return ComputeCreditTarget(ring_headroom, effective_window);
}

void EventServer::RunConnection(int fd, pipeline::ProducerSlot* slot) {
  // Per-connection working set, allocated once: one inbound frame, one
  // outbound frame, one decoded batch. Bounded by construction — this is
  // the "no unbounded buffering" guarantee, not a heuristic.
  std::vector<uint8_t> rx(kFrameHeaderSize +
                          EventBatchPayloadSize(max_frame_events_));
  std::vector<uint8_t> tx(kFrameHeaderSize + kAckBodySize);
  std::vector<EventRecord> records(max_frame_events_);
  uint8_t body[kAckBodySize];

  // Handshake: the first frame must be a kHello we can speak.
  FrameHeader header;
  Status st = ReadFrame(fd, rx.data(), &header);
  if (!st.ok()) return;
  HelloBody hello;
  if (header.type != FrameType::kHello ||
      !DecodeHelloBody(rx.data() + kFrameHeaderSize, header.payload_len,
                       &hello)
           .ok() ||
      hello.wire_version != kWireVersion) {
    decode_errors_.Add(1);
    return;
  }
  uint64_t effective_window = pipeline_->queue_capacity();
  if (hello.requested_window > 0) {
    effective_window = std::min(effective_window,
                                static_cast<uint64_t>(hello.requested_window));
  }
  CreditLedger ledger(CreditTargetForSlot(*slot, effective_window));
  HelloAckBody hello_ack;
  hello_ack.credit_grant_total = ledger.grant_total();
  hello_ack.max_frame_events = static_cast<uint32_t>(max_frame_events_);
  hello_ack.producer_slot = static_cast<uint32_t>(slot->slot());
  EncodeHelloAckBody(hello_ack, body);
  st = SendFrame(fd, FrameType::kHelloAck, header.seq, body, kHelloAckBodySize,
                 tx.data());
  if (!st.ok()) return;

  // Steady state: read a frame, submit it fully, ack it with a refill.
  uint64_t delivered_total = 0;
  for (;;) {
    st = ReadFrame(fd, rx.data(), &header);
    if (!st.ok()) return;  // disconnect / stop / garbage, all counted above
    switch (header.type) {
      case FrameType::kEventBatch: {
        uint32_t count = 0;
        st = DecodeEventBatch(rx.data() + kFrameHeaderSize, header.payload_len,
                              records.data(),
                              static_cast<uint32_t>(max_frame_events_), &count);
        if (!st.ok()) {
          decode_errors_.Add(1);
          return;
        }
        events_rx_.Add(count);
        if (!ledger.Consume(count)) {
          // Overdrawn window: a correct client parks instead. Disconnect
          // rather than buffer what we never granted.
          decode_errors_.Add(1);
          return;
        }
        // The whole frame in one blocking batch submit (one ring publish
        // per fit), which parks while the ring is full exactly as
        // in-process; once it returns OK every event of the frame is
        // enqueued.
        st = slot->SubmitBatch(records.data(), count);
        if (st.IsInvalidArgument()) {
          // A zero-weight record is a protocol error. The pipeline checks
          // every weight before enqueuing any, so the frame is rejected
          // whole: nothing of it is applied, delivered or acked.
          decode_errors_.Add(1);
          return;
        }
        if (!st.ok()) return;  // pipeline draining: drop the connection
        delivered_total += count;
        events_delivered_.Add(count);
        AckBody ack;
        ack.acked_seq = header.seq;
        ack.delivered_total = delivered_total;
        ack.credit_grant_total = ledger.Refill(
            CreditTargetForSlot(*slot, effective_window));
        EncodeAckBody(ack, body);
        st = SendFrame(fd, FrameType::kAck, header.seq, body, kAckBodySize,
                       tx.data());
        if (!st.ok()) return;
        break;
      }
      case FrameType::kGoodbye: {
        // Final ack so the client can settle its books, then close.
        AckBody ack;
        ack.acked_seq = header.seq;
        ack.delivered_total = delivered_total;
        ack.credit_grant_total = ledger.grant_total();
        EncodeAckBody(ack, body);
        (void)SendFrame(fd, FrameType::kAck, header.seq, body, kAckBodySize,
                        tx.data())
            .ok();
        return;
      }
      default:
        // kHello twice, or a server→client type from a client.
        decode_errors_.Add(1);
        return;
    }
  }
}

}  // namespace net
}  // namespace countlib
