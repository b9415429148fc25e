#include "net/socket_util.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace countlib {
namespace net {
namespace {

Status ErrnoStatus(const char* what, int err) {
  return Status::IOError(std::string(what) + ": " +
                         std::strerror(err));
}

// Numeric IPv4 only, plus the one name everybody uses. A real resolver
// (getaddrinfo) would drag DNS timeouts into the connect path for no
// benefit: this front-end serves LAN/loopback producers.
Status ParseIpv4(const std::string& host, in_addr* out) {
  const char* name = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (inet_pton(AF_INET, name, out) != 1) {
    return Status::InvalidArgument("net: not a numeric IPv4 address: " + host);
  }
  return Status::OK();
}

}  // namespace

Result<int> ListenTcp(const std::string& bind_address, uint16_t port,
                      int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  COUNTLIB_RETURN_NOT_OK(ParseIpv4(bind_address, &addr.sin_addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    const int err = errno;
    CloseFd(fd);
    return ErrnoStatus("setsockopt(SO_REUSEADDR)", err);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    CloseFd(fd);
    return ErrnoStatus("bind", err);
  }
  if (::listen(fd, backlog) != 0) {
    const int err = errno;
    CloseFd(fd);
    return ErrnoStatus("listen", err);
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname", errno);
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  COUNTLIB_RETURN_NOT_OK(ParseIpv4(host, &addr.sin_addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  // Non-blocking connect + poll gives the timeout; the fd is switched
  // back to blocking afterwards (the client bounds its reads with
  // ReadFull's timeout, and blocking sends are exactly what we want).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const int err = errno;
    CloseFd(fd);
    return ErrnoStatus("connect", err);
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) {
      CloseFd(fd);
      return rc == 0 ? Status::IOError("connect: timed out")
                     : ErrnoStatus("poll(connect)", errno);
    }
    int soerr = 0;
    socklen_t slen = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0 ||
        soerr != 0) {
      CloseFd(fd);
      return ErrnoStatus("connect", soerr != 0 ? soerr : errno);
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAll(int fd, const uint8_t* buf, uint64_t len) {
  uint64_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("send", errno);
    }
    sent += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

Result<int> WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("poll", errno);
  return rc > 0 ? 1 : 0;
}

Status ReadFull(int fd, uint8_t* buf, uint64_t len, int timeout_ms,
                uint64_t* got) {
  *got = 0;
  while (*got < len) {
    if (timeout_ms >= 0) {
      COUNTLIB_ASSIGN_OR_RETURN(const int ready, WaitReadable(fd, timeout_ms));
      if (ready == 0) return Status::IOError("net: timed out waiting for data");
    }
    const ssize_t n = ::recv(fd, buf + *got, len - *got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("recv", errno);
    }
    if (n == 0) {
      return Status::IOError("net: peer closed the connection");
    }
    *got += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace net
}  // namespace countlib
