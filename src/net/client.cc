#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/socket_util.h"

namespace countlib {
namespace net {
namespace {

const Status& NoDataStatus() {
  static const Status st = Status::Pending("net client: no frame readable");
  return st;
}

const Status& ClosedStatus() {
  static const Status st =
      Status::FailedPrecondition("net client: already closed");
  return st;
}

const Status& ZeroWeightStatus() {
  static const Status st = Status::InvalidArgument(
      "net client: zero weight (the pipeline rejects it)");
  return st;
}

// Acks and hello-acks are the only inbound frames; anything longer is a
// protocol error, so the receive buffer (and the decoder's cap) stay tiny.
constexpr uint64_t kMaxInboundPayload = 64;

// Bounds the TCP connect and each wait for hello-ack bytes.
constexpr int kConnectTimeoutMs = 2000;
// First reconnect backoff; it doubles up to ClientOptions::backoff_max_ms.
constexpr int kBackoffInitialMs = 1;

}  // namespace

Result<std::unique_ptr<EventClient>> EventClient::Connect(
    const ClientOptions& options) {
  if (options.ack_timeout_ms < 1) {
    return Status::InvalidArgument(
        "EventClient: ack_timeout_ms must be positive");
  }
  std::unique_ptr<EventClient> client(new EventClient(options));
  COUNTLIB_RETURN_NOT_OK(client->EnsureConnected());
  return client;
}

EventClient::EventClient(const ClientOptions& options) : options_(options) {
  rx_.resize(kFrameHeaderSize + kMaxInboundPayload);
}

EventClient::~EventClient() {
  const Status st = Close();
  (void)st.ok();  // destructor: nowhere to report; books are in Stats()
}

Status EventClient::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  int backoff_ms = kBackoffInitialMs;
  Status last = Status::IOError("net client: no connect attempted");
  for (uint64_t attempt = 0; attempt <= options_.max_reconnect_attempts;
       ++attempt) {
    if (attempt > 0) {
      // Capped exponential backoff between attempts; plain sleep — this
      // is a remote wait, not an in-process park, so EventCount does not
      // apply (there is no producer to notify us).
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    last = ConnectOnce();
    if (last.ok()) {
      if (connected_once_) stats_.reconnects += 1;
      connected_once_ = true;
      return Status::OK();
    }
  }
  return last;
}

Status EventClient::ConnectOnce() {
  COUNTLIB_ASSIGN_OR_RETURN(
      const int fd,
      ConnectTcp(options_.host, options_.port, kConnectTimeoutMs));
  // Hello (seq 1 on every connection) ...
  uint8_t frame[kFrameHeaderSize + kHelloBodySize];
  HelloBody hello;
  hello.requested_window = options_.requested_window;
  FrameHeader header;
  header.type = FrameType::kHello;
  header.payload_len = kHelloBodySize;
  header.seq = 1;
  EncodeHelloBody(hello, frame + kFrameHeaderSize);
  EncodeFrameHeader(header, frame);
  Status st = SendAll(fd, frame, sizeof(frame));
  if (!st.ok()) {
    CloseFd(fd);
    return st;
  }
  // ... then the hello ack, which doubles as admission: a slotless server
  // closes without one and we land here with an EOF, feeding the backoff
  // loop — the wire form of the registry's kPending.
  uint8_t in[kFrameHeaderSize + kHelloAckBodySize];
  uint64_t got = 0;
  st = ReadFull(fd, in, kFrameHeaderSize, kConnectTimeoutMs, &got);
  if (st.ok()) {
    st = DecodeFrameHeader(in, kFrameHeaderSize, kHelloAckBodySize, &header);
  }
  if (st.ok() && header.type != FrameType::kHelloAck) {
    st = Status::IOError("net client: handshake got a non-hello-ack frame");
  }
  HelloAckBody ack;
  if (st.ok()) {
    st = ReadFull(fd, in + kFrameHeaderSize, header.payload_len,
                  kConnectTimeoutMs, &got);
  }
  if (st.ok()) {
    st = DecodeHelloAckBody(in + kFrameHeaderSize, header.payload_len, &ack);
  }
  // The frame buffers are sized from this cap, so a u32 off the wire is
  // bounded by the protocol's own, not trusted.
  if (st.ok() &&
      (ack.max_frame_events < 1 || ack.max_frame_events > kMaxFrameEvents)) {
    st = Status::IOError("net client: hello-ack frame cap outside [1, 2^20]");
  }
  if (!st.ok()) {
    CloseFd(fd);
    return st;
  }
  // Commit the connection.
  fd_ = fd;
  seq_ = 1;
  acked_seq_ = 1;
  conn_sent_ = 0;
  conn_delivered_ = 0;
  conn_shed_ = 0;
  grant_total_ = ack.credit_grant_total;
  max_frame_events_ = ack.max_frame_events;
  tx_.resize(kFrameHeaderSize + EventBatchPayloadSize(max_frame_events_));
  pending_.reserve(max_frame_events_);
  stats_.frames_tx += 1;
  stats_.frames_rx += 1;
  stats_.bytes_tx += sizeof(frame);
  stats_.bytes_rx += kFrameHeaderSize + kHelloAckBodySize;
  return Status::OK();
}

void EventClient::OnDisconnect() {
  if (fd_ < 0) return;
  // At-most-once: events sent but never acked are not resent — they move
  // to the lost ledger so the books keep balancing.
  stats_.events_lost_unacked += conn_sent_ - (conn_delivered_ + conn_shed_);
  CloseFd(fd_);
  fd_ = -1;
  seq_ = 0;
  acked_seq_ = 0;
  conn_sent_ = 0;
  conn_delivered_ = 0;
  conn_shed_ = 0;
  grant_total_ = 0;
}

Status EventClient::ReadServerFrame(bool blocking) {
  if (fd_ < 0) return Status::IOError("net client: not connected");
  COUNTLIB_ASSIGN_OR_RETURN(
      const int ready,
      WaitReadable(fd_, blocking ? options_.ack_timeout_ms : 0));
  if (ready == 0) {
    if (!blocking) return NoDataStatus();
    return Status::IOError("net client: timed out waiting for an ack");
  }
  uint64_t got = 0;
  COUNTLIB_RETURN_NOT_OK(ReadFull(fd_, rx_.data(), kFrameHeaderSize,
                                  options_.ack_timeout_ms, &got));
  FrameHeader header;
  Status st =
      DecodeFrameHeader(rx_.data(), kFrameHeaderSize, kMaxInboundPayload,
                        &header);
  if (!st.ok()) {
    stats_.decode_errors += 1;
    return st;
  }
  if (header.payload_len > 0) {
    COUNTLIB_RETURN_NOT_OK(ReadFull(fd_, rx_.data() + kFrameHeaderSize,
                                    header.payload_len, options_.ack_timeout_ms,
                                    &got));
  }
  stats_.frames_rx += 1;
  stats_.bytes_rx += kFrameHeaderSize + header.payload_len;
  if (header.type != FrameType::kAck) {
    stats_.decode_errors += 1;
    return Status::IOError("net client: unexpected frame type from server");
  }
  AckBody ack;
  st = DecodeAckBody(rx_.data() + kFrameHeaderSize, header.payload_len, &ack);
  if (!st.ok()) {
    stats_.decode_errors += 1;
    return st;
  }
  // Cumulative totals make acks idempotent: fold in the deltas, never
  // trust a single ack in isolation.
  stats_.events_delivered += ack.delivered_total - conn_delivered_;
  stats_.events_shed += ack.shed_total - conn_shed_;
  conn_delivered_ = ack.delivered_total;
  conn_shed_ = ack.shed_total;
  grant_total_ = std::max(grant_total_, ack.credit_grant_total);
  acked_seq_ = std::max(acked_seq_, ack.acked_seq);
  return Status::OK();
}

Status EventClient::SendPending() {
  while (head_ < pending_.size()) {
    Status st = EnsureConnected();
    if (!st.ok()) {
      // Compact before reporting: pending events stay queued for a later
      // attempt, but the drained prefix is gone.
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<int64_t>(head_));
      head_ = 0;
      return st;
    }
    // Opportunistically drain acks so the window reflects server progress.
    for (;;) {
      st = ReadServerFrame(/*blocking=*/false);
      if (st.IsPending()) break;
      if (!st.ok()) {
        OnDisconnect();
        break;
      }
    }
    if (fd_ < 0) continue;  // reconnect and retry
    const uint64_t available = grant_total_ - conn_sent_;
    if (available == 0) {
      // Out of credits: this blocking wait for a refill IS the
      // client-side park — the server's backpressure reaching us.
      stats_.credit_stalls += 1;
      st = ReadServerFrame(/*blocking=*/true);
      if (!st.ok()) OnDisconnect();
      continue;
    }
    const uint64_t chunk = std::min(
        {pending_.size() - head_, available, max_frame_events_});
    const uint64_t payload_len = EventBatchPayloadSize(chunk);
    FrameHeader header;
    header.type = FrameType::kEventBatch;
    header.payload_len = static_cast<uint32_t>(payload_len);
    header.seq = ++seq_;
    EncodeEventBatch(&pending_[head_], static_cast<uint32_t>(chunk),
                     tx_.data() + kFrameHeaderSize);
    EncodeFrameHeader(header, tx_.data());
    st = SendAll(fd_, tx_.data(), kFrameHeaderSize + payload_len);
    if (!st.ok()) {
      --seq_;  // the frame never made it onto the wire
      OnDisconnect();
      continue;
    }
    head_ += chunk;
    conn_sent_ += chunk;
    stats_.events_sent += chunk;
    stats_.frames_tx += 1;
    stats_.bytes_tx += kFrameHeaderSize + payload_len;
  }
  pending_.clear();
  head_ = 0;
  return Status::OK();
}

Status EventClient::Submit(uint64_t key, uint64_t weight) {
  if (closed_) return ClosedStatus();
  if (weight == 0) return ZeroWeightStatus();
  pending_.push_back(EventRecord{key, weight});
  stats_.events_submitted += 1;
  if (pending_.size() - head_ >= max_frame_events_) {
    return SendPending();
  }
  return Status::OK();
}

Status EventClient::SubmitBatch(const EventRecord* records, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    COUNTLIB_RETURN_NOT_OK(Submit(records[i].key, records[i].weight));
  }
  return Status::OK();
}

Status EventClient::Flush() {
  if (closed_) return ClosedStatus();
  COUNTLIB_RETURN_NOT_OK(SendPending());
  while (fd_ >= 0 && acked_seq_ < seq_) {
    const Status st = ReadServerFrame(/*blocking=*/true);
    if (!st.ok()) OnDisconnect();  // losses accounted; loop then exits
  }
  return Status::OK();
}

Status EventClient::Close() {
  if (closed_) return Status::OK();
  const Status flushed = Flush();
  if (fd_ >= 0) {
    FrameHeader header;
    header.type = FrameType::kGoodbye;
    header.payload_len = 0;
    header.seq = ++seq_;
    uint8_t frame[kFrameHeaderSize];
    EncodeFrameHeader(header, frame);
    Status st = SendAll(fd_, frame, sizeof(frame));
    if (st.ok()) {
      stats_.frames_tx += 1;
      stats_.bytes_tx += sizeof(frame);
      while (fd_ >= 0 && acked_seq_ < seq_) {
        st = ReadServerFrame(/*blocking=*/true);
        if (!st.ok()) break;
      }
    }
    OnDisconnect();  // after a clean goodbye the lost delta is zero
  }
  closed_ = true;
  return flushed;
}

ClientStats EventClient::Stats() const {
  ClientStats s = stats_;
  s.events_pending = pending_.size() - head_;
  s.credits_available = fd_ >= 0 ? grant_total_ - conn_sent_ : 0;
  return s;
}

}  // namespace net
}  // namespace countlib
