/// \file credit.h
/// \brief Credit accounting for the socket ingestion protocol — the piece
/// that extends the pipeline's backpressure across the wire
/// (docs/net_protocol.md, "Credit state machine").
///
/// The scheme follows netmix-style budget accounting (SNIPPETS.md §2-3):
/// both sides track a single **cumulative** grant total instead of a
/// windowed delta, so a duplicated or reordered read of an ack can never
/// double-credit the client. The server grants; the client computes
///
///     available = credit_grant_total_received - events_sent
///
/// and parks (its credit stall) when `available` reaches zero. The server
/// sizes the target window from live pipeline headroom — the free space
/// in the connection's producer ring — so a backed-up pipeline shrinks the
/// window toward the liveness floor of 1 and a healthy one re-opens it,
/// which is exactly "the remote producer parks client-side" without a
/// per-event round trip.
///
/// Everything here is plain single-threaded arithmetic: each connection
/// thread owns its ledger exclusively (server) or the client is
/// single-threaded by contract, so there are no atomics and no locks —
/// just invariants, which net_credit_test.cc pins down.

#ifndef COUNTLIB_NET_CREDIT_H_
#define COUNTLIB_NET_CREDIT_H_

#include <cstdint>

namespace countlib {
namespace net {

/// The credit window the server targets given the slot's ring headroom.
/// Clamped to [1, max_window]: the floor of 1 is the liveness guarantee —
/// even a fully backed-up pipeline leaves the client one credit, so every
/// stall is ended by the next ack and the protocol cannot deadlock; a
/// floor-credit event that meets a full ring parks in the pipeline's
/// blocking submit until a drain frees space.
inline uint64_t ComputeCreditTarget(uint64_t ring_headroom,
                                    uint64_t max_window) {
  if (ring_headroom > max_window) return max_window;
  return ring_headroom < 1 ? 1 : ring_headroom;
}

/// Server-side ledger for one connection. `Consume` records events
/// received; `Refill` raises the cumulative grant toward the current
/// target without ever retracting credit already granted (grants are
/// monotone — a client that observed an older ack must never see the
/// total move backward).
class CreditLedger {
 public:
  /// Opens the ledger with the handshake grant.
  explicit CreditLedger(uint64_t initial_grant)
      : grant_total_(initial_grant) {}

  /// Records `n` events received from the client. Returns false when the
  /// client overdrew its window — a protocol violation the server
  /// disconnects on (a correct client blocks instead).
  bool Consume(uint64_t n) {
    consumed_total_ += n;
    return consumed_total_ <= grant_total_;
  }

  /// Raises the grant so post-ack availability equals `target` (from
  /// `ComputeCreditTarget`), monotonically: if availability already
  /// exceeds the (shrunken) target, the grant is left unchanged rather
  /// than clawed back. Returns the new cumulative grant to put in the
  /// ack.
  uint64_t Refill(uint64_t target) {
    const uint64_t want = consumed_total_ + target;
    if (want > grant_total_) grant_total_ = want;
    return grant_total_;
  }

  uint64_t grant_total() const { return grant_total_; }
  uint64_t consumed_total() const { return consumed_total_; }

  /// Credits the client can still spend as of this ledger's state.
  uint64_t available() const { return grant_total_ - consumed_total_; }

 private:
  uint64_t grant_total_ = 0;     ///< cumulative credits granted
  uint64_t consumed_total_ = 0;  ///< cumulative events received
};

}  // namespace net
}  // namespace countlib

#endif  // COUNTLIB_NET_CREDIT_H_
