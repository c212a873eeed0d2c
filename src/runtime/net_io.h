// Blocking socket helpers shared by the `lp_served` daemon and the
// SocketSolveBackend client: dial/listen over Unix-domain or TCP sockets
// plus framed reads and writes of the wire protocol (src/runtime/wire.h).
//
// Endpoint grammar (docs/runtime.md §"Wire protocol"):
//   unix:/path/to.sock   Unix-domain stream socket at that path
//   tcp:host:port        TCP to `host` (IPv4 literal or hostname); a
//                        listener may use port 0 for an ephemeral port
//   /path/to.sock        bare paths stay valid as an alias for unix:
//
// All reads honor a millisecond deadline (poll + recv loops, EINTR-safe);
// -1 blocks indefinitely. A framed read spends ONE deadline across the
// header and the payload: however the peer trickles the bytes, ReadFrame
// returns within ~timeout_ms total, never 2x. Errors come back as Status —
// a timeout is DeadlineExceeded (a TYPED signal, so callers classify it
// without matching message text), a peer close is OutOfRange. Writes use
// MSG_NOSIGNAL: a dead peer is an error, never a SIGPIPE. TCP sockets
// (dialed and accepted) run with TCP_NODELAY: frames are latency-bound
// request/response units, never coalesce-worthy bulk.

#ifndef LPLOW_RUNTIME_NET_IO_H_
#define LPLOW_RUNTIME_NET_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/wire.h"
#include "src/util/status.h"

namespace lplow {
namespace runtime {
namespace net {

/// A parsed endpoint spec (grammar above).
struct Endpoint {
  enum class Family { kUnix, kTcp };
  Family family = Family::kUnix;
  std::string path;   // kUnix: the socket path.
  std::string host;   // kTcp: IPv4 literal or hostname.
  uint16_t port = 0;  // kTcp: 0 = ephemeral (listeners only).
};

/// Parses "unix:/path", "tcp:host:port", or a bare path (alias for unix:).
Result<Endpoint> ParseEndpoint(const std::string& spec);

/// The canonical spec string ("unix:/path" or "tcp:host:port").
std::string FormatEndpoint(const Endpoint& endpoint);

/// Connects to the Unix socket at `path`. Returns the connected fd.
Result<int> DialUnix(const std::string& path);

/// Connects to `host:port` over TCP (TCP_NODELAY set).
Result<int> DialTcp(const std::string& host, uint16_t port);

/// Parses `spec` and dials whichever family it names.
Result<int> Dial(const std::string& spec);

/// Binds and listens on `path`. A stale socket file (no listener answers a
/// probe connect) is removed first; a file with a LIVE listener behind it
/// makes this fail with kAlreadyExists instead of hijacking the socket out
/// from under the running daemon.
Result<int> ListenUnix(const std::string& path, int backlog);

/// Binds and listens on `host:port`. Port 0 binds an ephemeral port; the
/// actually-bound port comes back through `bound_port` when non-null.
Result<int> ListenTcp(const std::string& host, uint16_t port, int backlog,
                      uint16_t* bound_port = nullptr);

/// Parses `spec` and listens on whichever family it names. When non-null,
/// `bound` receives the canonical spec with any ephemeral TCP port
/// resolved — the string clients should dial.
Result<int> Listen(const std::string& spec, int backlog,
                   std::string* bound = nullptr);

/// Accepts one connection; returns the fd (TCP_NODELAY set on TCP
/// connections), or an error when the listen fd was closed (the daemon's
/// shutdown path).
Result<int> AcceptConnection(int listen_fd);

/// Writes all of `data` (EINTR-safe, MSG_NOSIGNAL).
Status WriteAll(int fd, const uint8_t* data, size_t size);

/// Reads exactly `size` bytes within `timeout_ms` (-1 = no deadline).
Status ReadExact(int fd, uint8_t* out, size_t size, int timeout_ms);

/// Writes one framed message.
Status WriteFrame(int fd, wire::FrameKind kind,
                  const std::vector<uint8_t>& payload);

/// Reads one framed message: 10-byte header, validation, then the payload.
/// `timeout_ms` is ONE deadline for the whole frame — the payload read gets
/// only what the header read left over.
Result<wire::Frame> ReadFrame(int fd, int timeout_ms,
                              uint32_t max_payload = wire::kMaxFramePayload);

/// close(fd), EINTR-safe and null-tolerant (fd < 0 is a no-op).
void CloseFd(int fd);

}  // namespace net
}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_NET_IO_H_
