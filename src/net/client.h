/// \file client.h
/// \brief Remote producer for the socket ingestion front-end: batches
/// events into kEventBatch frames, honors the server's credit grants, and
/// reconnects with capped exponential backoff.
///
/// ## Threading contract
///
/// An `EventClient` is **single-threaded**, exactly like the
/// `ProducerSlot` it maps to on the server: one thread owns the client
/// and calls `Submit`/`Flush`/`Close` on it. Want N concurrent remote
/// producers? Open N clients — each gets its own slot, its own credit
/// window, and its own books. Consequently there are no locks and no
/// atomics here; there is also no background reader thread — acks are
/// drained opportunistically before sends and blockingly when out of
/// credits (that blocking wait *is* the client-side park, counted in
/// `ClientStats::credit_stalls`).
///
/// ## Waiting
///
/// Every read is bounded: a handshake read waits at most the 2 s connect
/// timeout for more bytes, and an ack read at most `ack_timeout_ms`, so a
/// server that stalls mid-frame costs one timeout and a disconnect, never
/// a hang.
///
/// ## Books
///
/// Every event passes through exactly one of four ledgers, so
///
///     events_submitted == events_delivered + events_shed
///                         + events_lost_unacked + events_pending
///
/// holds at all times: `delivered`/`shed` come from the server's
/// cumulative acks, `lost_unacked` counts events sent on a connection
/// that died before acking them (at-most-once: they are never resent),
/// and `pending` is the unsent local batch (re-sent across reconnects,
/// since the server never saw them). After a clean `Close`, `pending`
/// is 0 — the e2e suite asserts the three-term form.
///
/// ## Overload, client-side
///
/// Credit exhaustion is how a backed-up server reaches this process: the
/// window collapses to the liveness floor and `Submit` blocks here
/// instead of flooding the socket. The server never drops an accepted
/// event, so the ack's `shed_total`, which `events_shed` folds in, is
/// always 0 from `EventServer`; the ledger stays because the v1 ack
/// carries the field.

#ifndef COUNTLIB_NET_CLIENT_H_
#define COUNTLIB_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"
#include "util/status.h"

namespace countlib {
namespace net {

/// Where to connect, and how long to wait and retry. Frame size is not an
/// option: `Submit` sends once the server's frame cap (the hello ack's
/// `max_frame_events`, half its ring) is pending.
struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Credit window to request in the hello (0 = take the server's, the
  /// ring capacity).
  uint32_t requested_window = 0;
  /// How long to wait for an ack, and for each further byte of one, when
  /// blocked on credits or flushing before declaring the connection dead.
  int ack_timeout_ms = 30000;
  /// Reconnect budget per operation; each attempt sleeps the current
  /// backoff, which doubles from 1 ms up to `backoff_max_ms`.
  uint64_t max_reconnect_attempts = 8;
  int backoff_max_ms = 1000;
};

/// Snapshot of the client's ledgers (cumulative since Connect).
struct ClientStats {
  uint64_t events_submitted = 0;     ///< accepted by Submit/SubmitBatch
  uint64_t events_sent = 0;          ///< put on the wire
  uint64_t events_delivered = 0;     ///< acked as accepted by the pipeline
  uint64_t events_shed = 0;          ///< acked as shed (0 from EventServer)
  uint64_t events_lost_unacked = 0;  ///< sent on a connection that died
  uint64_t events_pending = 0;       ///< buffered locally, not yet sent
  uint64_t frames_tx = 0;
  uint64_t frames_rx = 0;
  uint64_t bytes_tx = 0;
  uint64_t bytes_rx = 0;
  uint64_t credit_stalls = 0;  ///< blocking waits for an ack refill
  uint64_t reconnects = 0;     ///< successful re-handshakes after a drop
  uint64_t decode_errors = 0;  ///< malformed server frames
  uint64_t credits_available = 0;  ///< window remaining right now
};

/// \brief Blocking, credit-honoring remote producer. Single-threaded; see
/// the file comment for the contract.
class EventClient {
 public:
  /// Connects and completes the hello/hello-ack handshake (with the full
  /// reconnect budget). The returned client is ready to submit.
  static Result<std::unique_ptr<EventClient>> Connect(
      const ClientOptions& options);

  /// Best-effort `Close`.
  ~EventClient();

  EventClient(const EventClient&) = delete;
  EventClient& operator=(const EventClient&) = delete;

  /// Buffers one event, sending once a full frame is pending. Blocks when
  /// out of credits. `kInvalidArgument` for zero weight (the pipeline
  /// would reject it); `kIOError` once the reconnect budget is exhausted.
  Status Submit(uint64_t key, uint64_t weight = 1);

  /// `Submit` for a caller-owned array of records.
  Status SubmitBatch(const EventRecord* records, uint64_t n);

  /// Sends everything buffered and waits until every sent frame is acked
  /// (or its connection is declared dead and its events accounted as
  /// lost). OK means the books are settled, not that nothing was lost —
  /// check `Stats().events_lost_unacked`.
  Status Flush();

  /// `Flush`, then a goodbye/final-ack exchange and socket close.
  /// Idempotent; the destructor calls it.
  Status Close();

  ClientStats Stats() const;

 private:
  explicit EventClient(const ClientOptions& options);

  /// Dials and re-handshakes until connected or the budget is spent.
  Status EnsureConnected();
  /// One dial + handshake attempt.
  Status ConnectOnce();
  /// Declares the connection dead: unacked sent events move to the
  /// lost_unacked ledger, the socket closes, per-connection state resets.
  void OnDisconnect();
  /// Sends buffered events, waiting for credit refills as needed.
  Status SendPending();
  /// Reads one server frame; `blocking` waits up to ack_timeout_ms for it
  /// to start, otherwise returns `kPending` immediately when nothing is
  /// readable. The rest of the frame is read with the same bound. Folds
  /// any ack's cumulative totals into the ledgers.
  Status ReadServerFrame(bool blocking);

  ClientOptions options_;
  int fd_ = -1;
  bool closed_ = false;
  bool connected_once_ = false;  ///< distinguishes reconnects from the dial

  // Per-connection protocol state (reset by OnDisconnect).
  uint64_t seq_ = 0;            ///< last frame seq sent
  uint64_t acked_seq_ = 0;      ///< highest seq the server acked
  uint64_t conn_sent_ = 0;      ///< events sent this connection
  uint64_t conn_delivered_ = 0; ///< cumulative, from the last ack
  uint64_t conn_shed_ = 0;      ///< cumulative, from the last ack
  uint64_t grant_total_ = 0;    ///< cumulative credits granted to us
  uint64_t max_frame_events_ = 0;  ///< the server's cap, from the hello ack

  // Session ledgers (survive reconnects).
  ClientStats stats_;

  // Pending batch: records [head_, pending_.size()) are unsent. head_
  // avoids O(n^2) erase-from-front; the vector compacts on drain.
  std::vector<EventRecord> pending_;
  uint64_t head_ = 0;

  std::vector<uint8_t> tx_;  ///< one outbound frame, sized at handshake
  std::vector<uint8_t> rx_;  ///< one inbound frame (acks are small)
};

}  // namespace net
}  // namespace countlib

#endif  // COUNTLIB_NET_CLIENT_H_
