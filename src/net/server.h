/// \file server.h
/// \brief Poll-based TCP ingestion server: the socket front-end that turns
/// the in-process `IngestPipeline` into a service.
///
/// One accept thread polls the listening socket (and a self-pipe so
/// `Stop` interrupts it); each accepted connection leases a
/// `ProducerSlot` from the pipeline's registry and runs on its own
/// thread, preserving the slot's SPSC contract — the connection thread is
/// the slot's single producer for the lease's lifetime. When every slot
/// is leased the server refuses the connection at accept time (counted,
/// closed immediately); remote producers retry with backoff, which is the
/// registry's `kPending` semantics extended over the wire. The registry is
/// the only connection cap, and the server never disconnects a quiet
/// client: a connection thread blocks in `recv` until its next frame
/// arrives, and `Stop` ends those reads by shutting the sockets down.
///
/// ## Flow control
///
/// Submission credits (src/net/credit.h) extend the pipeline's
/// backpressure to remote producers. The handshake grants an initial window
/// sized from live pipeline headroom (the free space in the connection's
/// ring, so at most the ring's capacity); each ack piggybacks a refill
/// toward the current target. A backed-up pipeline shrinks the window to
/// the liveness floor of 1, so clients park on their last credit instead
/// of flooding the server — there is no unbounded server-side buffering
/// anywhere: each connection holds exactly one frame buffer and submits
/// it fully before reading the next frame. The floor credit's one event is the only one that can meet a
/// full ring; its `SubmitBatch` parks until a drain frees space.
///
/// ## Books
///
/// Acks carry the connection's cumulative `delivered_total`. A frame is
/// acked only after its one `SubmitBatch` call returns OK, which means
/// every event of it was enqueued, so `delivered == events received from
/// acked frames` holds exactly — the client folds it into its own
/// `submitted == delivered + shed + lost_unacked` books. Acks leave
/// `shed_total` at 0: the pipeline never drops an accepted event. A
/// connection that dies mid-frame loses only the partial frame (counted
/// in `partial_frames`); complete frames are always fully submitted
/// before the next read. A connection that `Stop` ends after the server
/// began reading a frame counts that frame in `partial_frames` too. A
/// frame with a zero-weight record is rejected whole (nothing of it is
/// submitted) and drops the connection as a protocol error.
///
/// ## Locking
///
/// One mutex, `conns_mu_` at LOCK_LEVEL(5) (docs/concurrency.md): it
/// guards the connection registry only. Nothing blocking — no
/// `SubmitBatch`, no park, no `join` — runs under it; connection threads submit
/// lock-free on their leased slot, and `Stop` extracts the registry under
/// the lock but joins outside it.

#ifndef COUNTLIB_NET_SERVER_H_
#define COUNTLIB_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace countlib {
namespace net {

/// Where to listen. Frame size is not an option: the server takes frames
/// of up to half its pipeline's ring (at most `kMaxFrameEvents`),
/// advertises that cap in the hello ack, and enforces it on decode.
struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with `EventServer::port()`.
  uint16_t port = 0;
};

/// Snapshot of the server's activity counters (cumulative since Make).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< no free drained slot, or draining
  uint64_t connections_active = 0;
  uint64_t frames_rx = 0;
  uint64_t frames_tx = 0;
  uint64_t bytes_rx = 0;
  uint64_t bytes_tx = 0;
  uint64_t events_rx = 0;         ///< events in decoded complete frames
  uint64_t events_delivered = 0;  ///< accepted by the pipeline
  uint64_t decode_errors = 0;     ///< malformed frames and protocol violations
  uint64_t partial_frames = 0;    ///< connections dropped or stopped mid-frame
  uint64_t credit_stalls = 0;     ///< acks issued at the liveness-floor window
};

/// \brief TCP front-end feeding an `IngestPipeline`. Thread-safe;
/// `Stop()` (and the destructor) joins every thread it started. `Make`
/// registers the `countlib_net_*` instruments (src/obs/README.md) with
/// `obs::Registry::Default()`; destruction releases them.
class EventServer {
 public:
  /// Binds, listens, and starts the accept thread. The pipeline must
  /// outlive the server; it is not owned. Each connection leases its slot
  /// through `TryAcquireProducerSlot`, so the server can share a pipeline
  /// with in-process producers that lease too.
  static Result<std::unique_ptr<EventServer>> Make(
      pipeline::IngestPipeline* pipeline, const ServerOptions& options);

  /// Stops and joins (`Stop`).
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Shuts every connection's socket down, which ends its thread's
  /// blocked read, and joins the accept and connection threads.
  /// Idempotent. In-flight batches finish their pipeline submits; stop
  /// the server before draining the pipeline, and do not stop it while the
  /// pipeline is paused with full queues (a blocked `SubmitBatch` only
  /// unblocks on pipeline progress).
  Status Stop();

  /// The bound port (resolves an ephemeral bind).
  uint16_t port() const { return port_; }

  ServerStats Stats() const;

 private:
  /// Registry entry for one connection. The struct's address is stable
  /// (held by unique_ptr) so the connection thread keeps a raw pointer to
  /// its own entry; `fd` and `done` are written by the connection thread
  /// and read by reapers, all under `conns_mu_`.
  struct Conn {
    int fd = -1;
    std::thread thread;
    bool done = false;
  };

  explicit EventServer(pipeline::IngestPipeline* pipeline);

  void RegisterMetrics();
  void AcceptLoop();
  /// Joins and destroys connections whose threads have finished (join
  /// happens outside the lock; a done entry's thread exits imminently).
  void ReapFinished();
  /// Thread body: runs the protocol, then releases the slot and marks the
  /// registry entry done.
  void ConnectionLoop(Conn* conn, pipeline::ProducerSlot slot);
  /// The framed protocol on one socket; returns when the peer says
  /// goodbye, disconnects, misbehaves, or `Stop` shuts the socket down.
  void RunConnection(int fd, pipeline::ProducerSlot* slot);
  /// Reads one frame (header + payload) into `buf` (sized for the
  /// largest frame), blocking until it arrives. See socket_util.h ReadFull
  /// for the status contract; partial reads and decode failures are
  /// counted here.
  Status ReadFrame(int fd, uint8_t* buf, FrameHeader* header);
  /// Encodes and sends a header+body frame, counting tx traffic.
  Status SendFrame(int fd, FrameType type, uint64_t seq, const uint8_t* body,
                   uint64_t body_len, uint8_t* scratch);
  /// Current credit target for `slot` from its ring's live headroom;
  /// counts a credit stall when headroom is exhausted.
  uint64_t CreditTargetForSlot(const pipeline::ProducerSlot& slot,
                               uint64_t effective_window);

  pipeline::IngestPipeline* pipeline_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: Stop() wakes the accept poll
  /// Most events one kEventBatch frame may carry: half the ring, so two
  /// frames fill one credit window and one can be on the wire while the
  /// other is submitted.
  const uint64_t max_frame_events_;

  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  /// Connection registry. Held only for registry bookkeeping — never
  /// across a submit, park, or join.
  mutable Mutex conns_mu_ LOCK_LEVEL(5);
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_
      GUARDED_BY(conns_mu_);
  uint64_t next_conn_id_ GUARDED_BY(conns_mu_) = 0;

  std::atomic<uint64_t> active_conns_{0};  ///< gauge mirror of live entries

  /// Activity counters (striped, wait-free) backing both `Stats()` and the
  /// exported `countlib_net_*` series — one source of truth, two surfaces
  /// (the obs README's inventory).
  obs::Counter connections_total_;
  obs::Counter connections_refused_;
  obs::Counter frames_rx_;
  obs::Counter frames_tx_;
  obs::Counter bytes_rx_;
  obs::Counter bytes_tx_;
  obs::Counter events_rx_;
  obs::Counter events_delivered_;
  obs::Counter decode_errors_;
  obs::Counter partial_frames_;
  obs::Counter credit_stalls_;

  /// Registry handles. Declared LAST so every Registration is released
  /// before the gauge-captured members above start dying.
  std::vector<obs::Registration> registrations_;
};

}  // namespace net
}  // namespace countlib

#endif  // COUNTLIB_NET_SERVER_H_
