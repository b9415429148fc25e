/// \file socket_util.h
/// \brief Thin `Status`-returning wrappers over the POSIX socket calls the
/// net subsystem uses — listen/connect setup, full-length sends, and a
/// full-length read that blocks or times out.
///
/// These are deliberately boring: all protocol knowledge lives in wire.h,
/// all policy in server/client. Everything here loops on EINTR, sends
/// with MSG_NOSIGNAL (a dead peer must surface as EPIPE, not kill the
/// process), and reports failures as `kIOError` with the errno name in
/// the message.

#ifndef COUNTLIB_NET_SOCKET_UTIL_H_
#define COUNTLIB_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace countlib {
namespace net {

/// Creates a TCP listener bound to `bind_address:port` (port 0 picks an
/// ephemeral port; recover it with `LocalPort`). SO_REUSEADDR and
/// CLOEXEC are set. Returns the listening fd.
Result<int> ListenTcp(const std::string& bind_address, uint16_t port,
                      int backlog);

/// The locally bound port of `fd` (resolves ephemeral binds).
Result<uint16_t> LocalPort(int fd);

/// Blocking TCP connect to `host:port` (numeric IPv4 or "localhost"),
/// bounded by `timeout_ms`. CLOEXEC and TCP_NODELAY are set — frames are
/// already batched, so Nagle only adds ack latency.
Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       int timeout_ms);

/// Writes all `len` bytes, looping over short sends and EINTR.
/// `kIOError` on a dead peer (EPIPE/ECONNRESET).
Status SendAll(int fd, const uint8_t* buf, uint64_t len);

/// Waits up to `timeout_ms` for `fd` to become readable. Returns 1 when
/// readable (or the peer hung up — the following read reports it), 0 on
/// timeout.
Result<int> WaitReadable(int fd, int timeout_ms);

/// Reads exactly `len` bytes into `buf`. Each wait for more bytes is
/// bounded by `timeout_ms`; -1 blocks in `recv` until bytes arrive, the
/// peer closes, or another thread shuts the socket down (which is how
/// `EventServer::Stop` ends its connections' reads).
///
///  - OK: `len` bytes read (`*got == len`).
///  - `kIOError` with `*got < len`: the peer closed or errored, the socket
///    was shut down, or a wait timed out. `*got == 0` means a clean frame
///    boundary, anything else is a partial frame (the server's books
///    distinguish the two).
Status ReadFull(int fd, uint8_t* buf, uint64_t len, int timeout_ms,
                uint64_t* got);

/// Closes `fd`, ignoring EINTR (Linux semantics: the fd is gone either
/// way).
void CloseFd(int fd);

}  // namespace net
}  // namespace countlib

#endif  // COUNTLIB_NET_SOCKET_UTIL_H_
