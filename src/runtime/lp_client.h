// SocketSolveBackend: the engine-side client of the `lp_served` daemon — a
// runtime::SolveBackend whose heavy basis solves cross the process boundary
// as wire frames (src/runtime/wire.h) over pooled Unix-domain or TCP
// connections (endpoint grammar in src/runtime/net_io.h: "unix:/path",
// "tcp:host:port", or a bare path).
//
// Dispatch path: the engine checks WantsSerialized() (true here), encodes
// the solve job, and calls ExecuteSerialized. The client routes the job to
// its home endpoint (StableJobHash(job_id) % endpoints — the same stable
// rule the daemon's shards use), leases a pooled connection or dials a new
// one, and exchanges request/response with a per-request deadline.
//
// Connections: every exchange leases one connection exclusively for its
// round trip and returns it to the endpoint's pool (at most
// `max_pooled_connections` idle) when it ends cleanly. The daemon serves
// one frame at a time per connection, so concurrency comes from several
// leased connections, never from stacking requests on one. Because a
// connection carries one request at a time, the reply on it always
// belongs to that request: job ids need not be unique among concurrent
// callers (replayed serve traffic reuses a tenant's id for every job).
//
// Routing modes:
//   kFailoverReplicas (default) — every endpoint is a replica of the same
//     cluster; a job starts at its home endpoint and fails over through
//     the ladder below.
//   kShardByJobHash — each endpoint is a shard that owns its hash slice of
//     the job space (a multi-daemon cluster partitioned the same way the
//     daemon's internal shards are). No cross-endpoint failover: a shard
//     that cannot serve sends the job straight to the local fallback, so a
//     daemon only ever sees its own slice. Results are bit-identical to
//     the replica mode and to in-process execution either way — routing is
//     pure dispatch policy under the determinism contract.
//
// Failure ladder (replica mode), in order:
//   1. retry on the same endpoint (a pooled connection may be stale);
//   2. fail over to the next *healthy* endpoint (an endpoint goes unhealthy
//      after `failover_threshold` consecutive failures; one success heals
//      it, and the home endpoint is always probed so a revived daemon is
//      rediscovered);
//   3. return false — the engine then runs the solve locally via Execute(),
//      which is bit-identical by the determinism contract, so failover
//      never changes results, only where the work ran.
//
// Backpressure: at most `max_inflight` ExecuteSerialized calls are admitted
// concurrently (a condition-variable gate); a kBusy answer from the daemon
// is not retried on that endpoint — it fails over or falls back.
//
// Byte accounting: every frame the client sends/receives is counted into
// `wire.client.tx_bytes` / `wire.client.rx_bytes` (plus per-frame-kind
// `wire.client.{tx,rx}_bytes.<kind>` counters) and per-endpoint
// EndpointStats.{tx,rx}_bytes — so the transport's real communication sits
// next to the paper's resample/sample byte counters in the same registry.

#ifndef LPLOW_RUNTIME_LP_CLIENT_H_
#define LPLOW_RUNTIME_LP_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/runtime/metrics.h"
#include "src/runtime/solve_backend.h"
#include "src/runtime/trace.h"
#include "src/runtime/wire.h"
#include "src/util/status.h"

namespace lplow {
namespace runtime {

class SocketSolveBackend final : public SolveBackend {
 public:
  enum class RoutingMode {
    /// Endpoints are replicas: home-endpoint-first with failover.
    kFailoverReplicas,
    /// Endpoints are shards keyed StableJobHash(job_id) % endpoints; no
    /// cross-endpoint failover (a failed shard means local fallback).
    kShardByJobHash,
  };

  struct Options {
    /// Endpoint specs of the lp_served daemons (>= 1 required):
    /// "unix:/path", "tcp:host:port", or a bare Unix socket path.
    std::vector<std::string> endpoints;
    /// How multiple endpoints divide the job space (see header comment).
    RoutingMode routing = RoutingMode::kFailoverReplicas;
    /// Idle connections kept per endpoint; extras are closed on release.
    size_t max_pooled_connections = 4;
    /// Concurrent ExecuteSerialized calls admitted; 0 = unlimited. Callers
    /// over the cap block (backpressure), they are never dropped.
    size_t max_inflight = 0;
    /// Deadline for one request/response exchange. A timed-out connection
    /// is closed, never pooled again — its response may still arrive and
    /// must not be read as the answer to a later request.
    int request_timeout_ms = 30'000;
    /// Deadline for the daemon's hello on a fresh connection.
    int hello_timeout_ms = 5'000;
    /// Tries on one endpoint before failing over (>= 1; the first try may
    /// hit a stale pooled connection, so 2 is the useful default).
    int max_attempts_per_endpoint = 2;
    /// Consecutive failures that mark an endpoint unhealthy (skipped during
    /// failover until a probe succeeds).
    int failover_threshold = 3;
    uint32_t max_frame_payload = 64u << 20;
    /// Registry for wire.client.* metrics; null = MetricsRegistry::Global().
    MetricsRegistry* metrics = nullptr;
    /// Span recorder for the client's solve / pool-wait / RTT spans and the
    /// wire trace context stamped into solve requests. Observability only —
    /// never changes routing, retries, or results. Must outlive the backend.
    trace::TraceRecorder* trace = nullptr;
  };

  /// Cross-endpoint accounting (per-endpoint detail in endpoint_stats()).
  struct Stats {
    uint64_t requests = 0;        // ExecuteSerialized calls.
    uint64_t remote_success = 0;  // Served remotely, response returned.
    uint64_t remote_errors = 0;   // Server said no, deterministically.
    uint64_t busy = 0;            // kBusy answers.
    uint64_t timeouts = 0;        // Exchanges cut by the deadline.
    uint64_t failovers = 0;       // Jobs moved off their home endpoint.
    uint64_t local_fallbacks = 0; // Execute() closures run in-process.
  };

  struct EndpointStats {
    uint64_t dials = 0;          // Dial ATTEMPTS (failures included).
    uint64_t dial_failures = 0;  // Dials (or hellos) that did not connect.
    uint64_t reuses = 0;         // Pooled-connection leases.
    uint64_t successes = 0;
    uint64_t failures = 0;
    uint64_t tx_bytes = 0;  // Frame bytes written to this endpoint.
    uint64_t rx_bytes = 0;  // Frame bytes read from this endpoint.
    int consecutive_failures = 0;
    bool healthy = true;
  };

  static Result<std::unique_ptr<SocketSolveBackend>> Create(
      const Options& options);

  ~SocketSolveBackend() override;

  SocketSolveBackend(const SocketSolveBackend&) = delete;
  SocketSolveBackend& operator=(const SocketSolveBackend&) = delete;

  bool WantsSerialized() const override { return true; }

  /// Ships `request` to the job's endpoint (failing over per the ladder
  /// above when routing allows). True with `*response` filled when a daemon
  /// served it; false when the caller must solve locally.
  bool ExecuteSerialized(uint64_t job_id, const char* kind,
                         const std::vector<uint8_t>& request,
                         std::vector<uint8_t>* response) override;

  /// The local-fallback leg: runs `task` inline on the calling thread.
  void Execute(uint64_t job_id, const char* kind,
               const std::function<void()>& task) override;

  /// Liveness probe: one kPing/kPong exchange with `endpoint`.
  Status Ping(size_t endpoint);

  /// Scrapes `endpoint`'s live observability state: one kStatsRequest /
  /// kStatsResponse exchange returning the daemon's MetricsRegistry JSON
  /// (plus its Chrome trace JSON when `include_trace`).
  Result<wire::StatsResponse> ScrapeStats(size_t endpoint,
                                          bool include_trace = false);

  /// Asks `endpoint`'s daemon to drain and exit (it must have been started
  /// with allow_remote_shutdown).
  Status RequestServerShutdown(size_t endpoint);

  /// Closes every pooled connection; later requests dial fresh.
  void CloseIdleConnections();

  size_t num_endpoints() const { return endpoints_.size(); }
  const std::string& endpoint_path(size_t i) const;
  Stats stats() const;
  EndpointStats endpoint_stats(size_t endpoint) const;

 private:
  struct Endpoint;

  /// How one remote exchange ended — the typed signal ExecuteSerialized
  /// classifies stats with (never by matching status text).
  enum class RemoteOutcome {
    kOk,       // Response delivered.
    kBusy,     // Daemon answered kBusy (admission control).
    kTimeout,  // The request deadline cut the exchange.
    kRefused,  // Deterministic server-side refusal (no point failing over).
    kError,    // Anything else: dial/write/read/protocol failure.
  };

  explicit SocketSolveBackend(const Options& options);

  /// Leases a connection: pooled if available, else a fresh dial (hello
  /// consumed). `reused` tells the caller whether a failure might just be
  /// staleness worth one retry. Every dial attempt counts into
  /// EndpointStats.dials; failed dials/hellos into dial_failures.
  Result<int> LeaseConnection(Endpoint& ep, bool* reused);
  void ReturnConnection(Endpoint& ep, int fd);
  void NoteResult(Endpoint& ep, bool success);
  bool EndpointHealthy(const Endpoint& ep) const;

  /// Frame I/O with byte accounting (tx/rx totals, per-kind, per-endpoint).
  Status SendFrame(Endpoint& ep, int fd, wire::FrameKind kind,
                   const std::vector<uint8_t>& payload);
  Result<wire::Frame> RecvFrame(Endpoint& ep, int fd, int timeout_ms);
  void AccountTx(Endpoint& ep, wire::FrameKind kind, size_t payload_bytes);
  void AccountRx(Endpoint& ep, wire::FrameKind kind, size_t payload_bytes);

  /// One request/response on one endpoint, with the per-endpoint retry.
  Status TryEndpoint(Endpoint& ep, const std::vector<uint8_t>& request,
                     uint64_t job_id, std::vector<uint8_t>* response,
                     RemoteOutcome* outcome);
  /// Leases a connection, sends the request, and reads its one reply.
  /// `retryable` is set when a fresh dial might succeed where this failed.
  Status LeasedExchange(Endpoint& ep, const std::vector<uint8_t>& request,
                        uint64_t job_id, std::vector<uint8_t>* response,
                        RemoteOutcome* outcome, bool* retryable);

  Options options_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;

  Counter* requests_counter_;
  Counter* remote_success_counter_;
  Counter* local_fallback_counter_;
  Counter* failover_counter_;
  Counter* retries_counter_;
  Counter* tx_bytes_counter_;
  Counter* rx_bytes_counter_;
  // Indexed by FrameKind value (0 unused); registered up front so the hot
  // path never takes the registry lock.
  std::vector<Counter*> tx_bytes_by_kind_;
  std::vector<Counter*> rx_bytes_by_kind_;
  Histogram* rtt_hist_;
  trace::TraceRecorder* trace_;

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  size_t inflight_ = 0;
};

/// One-shot remote scrape without building a backend: dials `endpoint`
/// ("unix:/path", "tcp:host:port", or a bare path), consumes the daemon's
/// hello, and exchanges kStatsRequest/kStatsResponse. This is what
/// `lp_client_demo --stats` and `lp_solve_cli --dump-metrics` use against a
/// live daemon.
Result<wire::StatsResponse> ScrapeDaemonStats(const std::string& endpoint,
                                              bool include_trace = false,
                                              int timeout_ms = 5'000);

}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_LP_CLIENT_H_
