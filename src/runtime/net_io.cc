#include "src/runtime/net_io.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>

namespace lplow {
namespace runtime {
namespace net {

namespace {

using SteadyTime = std::chrono::steady_clock::time_point;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + strerror(errno));
}

/// Milliseconds left until `deadline`; -1 when there is no deadline.
int RemainingMs(const SteadyTime* deadline) {
  if (deadline == nullptr) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  *deadline - std::chrono::steady_clock::now())
                  .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

/// ReadExact against an absolute deadline (null = block forever). Keeping
/// the deadline absolute is what makes a multi-read sequence (frame header
/// then payload) spend one total budget instead of one per read.
Status ReadExactUntil(int fd, uint8_t* out, size_t size,
                      const SteadyTime* deadline) {
  size_t got = 0;
  while (got < size) {
    pollfd pfd{fd, POLLIN, 0};
    int ready;
    do {
      ready = poll(&pfd, 1, RemainingMs(deadline));
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) return Errno("poll");
    if (ready == 0) return Status::DeadlineExceeded("read timed out");
    ssize_t n = recv(fd, out + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) return Status::OutOfRange("connection closed by peer");
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

void SetTcpNoDelay(int fd) {
  int one = 1;
  // Best-effort: a socket that rejects the option (e.g. AF_UNIX) still
  // carries frames correctly, just without the latency hint.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool IsInetSocket(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return false;
  }
  return addr.ss_family == AF_INET || addr.ss_family == AF_INET6;
}

}  // namespace

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  if (spec.empty()) return Status::InvalidArgument("empty endpoint spec");
  Endpoint out;
  if (spec.rfind("unix:", 0) == 0) {
    out.family = Endpoint::Family::kUnix;
    out.path = spec.substr(5);
    if (out.path.empty()) {
      return Status::InvalidArgument("unix endpoint missing a path: " + spec);
    }
    return out;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out.family = Endpoint::Family::kTcp;
    const std::string rest = spec.substr(4);
    // Split at the LAST colon so numeric IPv4 hosts parse; bracketed IPv6
    // is out of scope for this grammar (documented in docs/runtime.md).
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == rest.size()) {
      return Status::InvalidArgument("tcp endpoint must be tcp:host:port: " +
                                     spec);
    }
    out.host = rest.substr(0, colon);
    const std::string port_str = rest.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = strtoul(port_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port > 65535) {
      return Status::InvalidArgument("tcp endpoint has a bad port: " + spec);
    }
    out.port = static_cast<uint16_t>(port);
    return out;
  }
  // Back-compat: a bare path is a Unix socket (the pre-TCP endpoint form).
  out.family = Endpoint::Family::kUnix;
  out.path = spec;
  return out;
}

std::string FormatEndpoint(const Endpoint& endpoint) {
  if (endpoint.family == Endpoint::Family::kUnix) {
    return "unix:" + endpoint.path;
  }
  return "tcp:" + endpoint.host + ":" + std::to_string(endpoint.port);
}

Result<int> DialUnix(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: " + path);
  }
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status st = Errno(("connect " + path).c_str());
    CloseFd(fd);
    return st;
  }
  return fd;
}

Result<int> DialTcp(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  const std::string port_str = std::to_string(port);
  addrinfo* res = nullptr;
  const int gai = getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::InvalidArgument("resolve " + host + ": " +
                                   gai_strerror(gai));
  }
  Status last = Status::Internal("no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    int rc;
    do {
      rc = connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      SetTcpNoDelay(fd);
      freeaddrinfo(res);
      return fd;
    }
    last = Errno(("connect tcp:" + host + ":" + port_str).c_str());
    CloseFd(fd);
  }
  freeaddrinfo(res);
  return last;
}

Result<int> Dial(const std::string& spec) {
  LPLOW_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(spec));
  if (endpoint.family == Endpoint::Family::kUnix) {
    return DialUnix(endpoint.path);
  }
  return DialTcp(endpoint.host, endpoint.port);
}

Result<int> ListenUnix(const std::string& path, int backlog) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: " + path);
  }
  // A leftover socket file makes bind fail with EADDRINUSE, so something
  // must be removed — but only a STALE file. Probe with a connect first:
  // a live daemon answers, and unlinking its socket would silently steal
  // every future client from it.
  if (Result<int> probe = DialUnix(path); probe.ok()) {
    CloseFd(*probe);
    return Status::AlreadyExists("a live listener already owns " + path);
  }
  unlink(path.c_str());
  int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Errno(("bind " + path).c_str());
    CloseFd(fd);
    return st;
  }
  if (listen(fd, backlog) < 0) {
    Status st = Errno("listen");
    CloseFd(fd);
    return st;
  }
  return fd;
}

Result<int> ListenTcp(const std::string& host, uint16_t port, int backlog,
                      uint16_t* bound_port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  const std::string port_str = std::to_string(port);
  addrinfo* res = nullptr;
  const int gai = getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (gai != 0) {
    return Status::InvalidArgument("resolve " + host + ": " +
                                   gai_strerror(gai));
  }
  Status last = Status::Internal("no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    int one = 1;
    (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(fd, ai->ai_addr, ai->ai_addrlen) < 0 ||
        listen(fd, backlog) < 0) {
      last = Errno(("bind tcp:" + host + ":" + port_str).c_str());
      CloseFd(fd);
      continue;
    }
    if (bound_port != nullptr) {
      sockaddr_storage bound{};
      socklen_t len = sizeof(bound);
      if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        last = Errno("getsockname");
        CloseFd(fd);
        continue;
      }
      *bound_port =
          bound.ss_family == AF_INET6
              ? ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port)
              : ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    }
    freeaddrinfo(res);
    return fd;
  }
  freeaddrinfo(res);
  return last;
}

Result<int> Listen(const std::string& spec, int backlog, std::string* bound) {
  LPLOW_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(spec));
  if (endpoint.family == Endpoint::Family::kUnix) {
    LPLOW_ASSIGN_OR_RETURN(int fd, ListenUnix(endpoint.path, backlog));
    if (bound != nullptr) *bound = FormatEndpoint(endpoint);
    return fd;
  }
  uint16_t bound_port = endpoint.port;
  LPLOW_ASSIGN_OR_RETURN(
      int fd, ListenTcp(endpoint.host, endpoint.port, backlog, &bound_port));
  endpoint.port = bound_port;
  if (bound != nullptr) *bound = FormatEndpoint(endpoint);
  return fd;
}

Result<int> AcceptConnection(int listen_fd) {
  while (true) {
    int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      if (IsInetSocket(fd)) SetTcpNoDelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExact(int fd, uint8_t* out, size_t size, int timeout_ms) {
  SteadyTime deadline_storage;
  const SteadyTime* deadline = nullptr;
  if (timeout_ms >= 0) {
    deadline_storage = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
    deadline = &deadline_storage;
  }
  return ReadExactUntil(fd, out, size, deadline);
}

Status WriteFrame(int fd, wire::FrameKind kind,
                  const std::vector<uint8_t>& payload) {
  auto frame = wire::EncodeFrame(
      kind, std::span<const uint8_t>(payload.data(), payload.size()));
  return WriteAll(fd, frame.data(), frame.size());
}

Result<wire::Frame> ReadFrame(int fd, int timeout_ms, uint32_t max_payload) {
  // One deadline for the whole frame: a peer that trickles the header
  // cannot buy the payload a second timeout_ms on top.
  SteadyTime deadline_storage;
  const SteadyTime* deadline = nullptr;
  if (timeout_ms >= 0) {
    deadline_storage = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
    deadline = &deadline_storage;
  }
  uint8_t header_bytes[wire::kFrameHeaderBytes];
  LPLOW_RETURN_IF_ERROR(
      ReadExactUntil(fd, header_bytes, sizeof(header_bytes), deadline));
  BitReader r(header_bytes, sizeof(header_bytes));
  wire::Frame frame;
  LPLOW_ASSIGN_OR_RETURN(frame.header,
                         wire::DecodeFrameHeader(&r, max_payload));
  frame.payload.resize(frame.header.payload_size);
  if (frame.header.payload_size > 0) {
    LPLOW_RETURN_IF_ERROR(ReadExactUntil(fd, frame.payload.data(),
                                         frame.payload.size(), deadline));
  }
  return frame;
}

void CloseFd(int fd) {
  if (fd < 0) return;
  int rc;
  do {
    rc = close(fd);
  } while (rc < 0 && errno == EINTR);
}

}  // namespace net
}  // namespace runtime
}  // namespace lplow
