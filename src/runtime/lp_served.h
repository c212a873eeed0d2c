// SolveDaemon: the `lp_served` network daemon — a cross-process solver
// cluster node. Listens on a Unix socket or TCP port (endpoint grammar in
// src/runtime/net_io.h), speaks the wire protocol
// (src/runtime/wire.h), and drains every decoded solve job into a
// ShardedSolverService, routed by the job id exactly like the in-process
// backend (StableJobHash % shards), so the served results — and the
// engine's transcripts — are bit-identical to in-process execution.
//
// Connection model: one handler thread per accepted connection, strict
// request/response per connection (clients pool several connections for
// parallelism). Admission control: at most `max_inflight` solve jobs across
// all connections; a request over the cap is answered with kBusy and NOT
// queued — backpressure the client can act on (retry elsewhere, back off,
// or fall back to local solving).
//
// Shutdown: Shutdown() (or a kShutdown frame when allow_remote_shutdown)
// stops the acceptor, closes every connection, joins the handlers, and
// drains the service — a clean exit with no job abandoned mid-solve.

#ifndef LPLOW_RUNTIME_LP_SERVED_H_
#define LPLOW_RUNTIME_LP_SERVED_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/metrics.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/runtime/trace.h"
#include "src/util/status.h"

namespace lplow {
namespace runtime {

class SolveDaemon {
 public:
  struct Options {
    /// Endpoint to listen on (required): "unix:/path", "tcp:host:port"
    /// (port 0 = ephemeral; see bound_endpoint()), or a bare Unix socket
    /// path. A Unix endpoint whose socket file is owned by a LIVE listener
    /// is refused with kAlreadyExists — only a stale file is reclaimed.
    std::string socket_path;
    /// Shards and per-shard workers of the backing ShardedSolverService.
    size_t num_shards = 2;
    size_t threads_per_shard = 1;
    /// Max solve jobs admitted concurrently across all connections;
    /// 0 = unlimited. Requests over the cap get kBusy.
    size_t max_inflight = 0;
    /// Frame payload ceiling (malformed/hostile peers are cut off here).
    uint32_t max_frame_payload = 64u << 20;
    /// Honor kShutdown frames (the CLI daemon enables this so a client can
    /// stop it; embedded/test daemons usually keep it off).
    bool allow_remote_shutdown = false;
    /// Registry for wire.daemon.* metrics; null = MetricsRegistry::Global().
    MetricsRegistry* metrics = nullptr;
    /// Span recorder for the daemon's per-request decode/solve/encode spans
    /// (parented on the client's wire trace context when present) and the
    /// trace JSON served to kStatsRequest scrapers. Observability only.
    /// Must outlive the daemon.
    trace::TraceRecorder* trace = nullptr;
  };

  struct Stats {
    uint64_t connections = 0;
    uint64_t requests = 0;       // Solve requests admitted.
    uint64_t solved = 0;         // OK responses written.
    uint64_t solve_errors = 0;   // Error responses written (bad job bytes).
    uint64_t busy_rejected = 0;  // kBusy answers (admission control).
    uint64_t malformed = 0;      // Frames that failed protocol decode.
    uint64_t pings = 0;
    uint64_t stats_requests = 0; // kStatsRequest scrapes answered.
  };

  /// Starts listening and accepting. Fails (with no daemon) when the
  /// socket cannot be bound.
  static Result<std::unique_ptr<SolveDaemon>> Start(const Options& options);

  /// Implies Shutdown().
  ~SolveDaemon();

  SolveDaemon(const SolveDaemon&) = delete;
  SolveDaemon& operator=(const SolveDaemon&) = delete;

  /// Blocks until a shutdown is requested (Shutdown(), a kShutdown frame,
  /// or RequestShutdown from a signal-driven caller).
  void WaitForShutdownRequest();

  /// Flags the daemon for shutdown without blocking (async-signal-unsafe
  /// work stays out of signal handlers: the handler calls this, the main
  /// thread does the actual Shutdown after WaitForShutdownRequest returns).
  void RequestShutdown();

  /// Stops accepting, closes every connection, joins all threads, drains
  /// the service, and unlinks the socket file. Idempotent.
  void Shutdown();

  const std::string& socket_path() const { return options_.socket_path; }
  /// The endpoint actually listening, in canonical spec form — for a TCP
  /// listener started on port 0 this carries the kernel-assigned port, so
  /// it is what clients should dial.
  const std::string& bound_endpoint() const { return bound_endpoint_; }
  size_t num_shards() const { return service_->num_shards(); }
  Stats stats() const;
  /// The backing service (per-shard solve accounting lives there).
  ShardedSolverService& service() { return *service_; }

 private:
  explicit SolveDaemon(const Options& options);

  void AcceptLoop();
  void HandleConnection(int fd);
  /// One solve request end-to-end: admission, routing, solve, response.
  void ServeRequest(int fd, const std::vector<uint8_t>& payload);
  /// One kStatsRequest: serves the registry JSON (and the recorder's trace
  /// JSON when asked and available) back as a kStatsResponse.
  Status ServeStats(int fd, const std::vector<uint8_t>& payload);

  Options options_;
  std::unique_ptr<ShardedSolverService> service_;
  MetricsRegistry* metrics_;
  trace::TraceRecorder* trace_;
  int listen_fd_ = -1;
  std::string bound_endpoint_;

  Counter* connections_counter_;
  Counter* requests_counter_;
  Counter* solved_counter_;
  Counter* solve_errors_counter_;
  Counter* busy_counter_;
  Counter* malformed_counter_;
  Counter* pings_counter_;
  Counter* stats_requests_counter_;
  Histogram* request_bytes_hist_;

  std::atomic<uint64_t> inflight_{0};
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool shut_down_ = false;
  Stats stats_;
  std::set<int> connection_fds_;
  std::vector<std::thread> handlers_;
  std::thread acceptor_;
};

}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_LP_SERVED_H_
