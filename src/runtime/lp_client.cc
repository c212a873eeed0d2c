#include "src/runtime/lp_client.h"

#include <utility>

#include "src/runtime/net_io.h"
#include "src/runtime/wire.h"
#include "src/util/logging.h"

namespace lplow {
namespace runtime {

struct SocketSolveBackend::Endpoint {
  std::string spec;
  std::mutex mu;
  std::vector<int> idle;  // Pooled connections, hello already consumed.
  EndpointStats stats;
};

namespace {

/// Scoped admission slot: blocks in the constructor until the in-flight
/// count is under the cap, releases (and wakes one waiter) on destruction.
class AdmissionSlot {
 public:
  AdmissionSlot(std::mutex* mu, std::condition_variable* cv, size_t* inflight,
                size_t cap)
      : mu_(mu), cv_(cv), inflight_(inflight), cap_(cap) {
    if (cap_ == 0) return;
    std::unique_lock<std::mutex> lock(*mu_);
    cv_->wait(lock, [this] { return *inflight_ < cap_; });
    ++*inflight_;
  }
  ~AdmissionSlot() {
    if (cap_ == 0) return;
    {
      std::lock_guard<std::mutex> lock(*mu_);
      --*inflight_;
    }
    cv_->notify_one();
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

 private:
  std::mutex* mu_;
  std::condition_variable* cv_;
  size_t* inflight_;
  size_t cap_;
};

}  // namespace

SocketSolveBackend::SocketSolveBackend(const Options& options)
    : options_(options) {
  for (const std::string& spec : options.endpoints) {
    auto ep = std::make_unique<Endpoint>();
    ep->spec = spec;
    endpoints_.push_back(std::move(ep));
  }
  MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : &MetricsRegistry::Global();
  requests_counter_ = metrics->GetCounter("wire.client.requests");
  remote_success_counter_ = metrics->GetCounter("wire.client.remote_success");
  local_fallback_counter_ = metrics->GetCounter("wire.client.local_fallbacks");
  failover_counter_ = metrics->GetCounter("wire.client.failovers");
  retries_counter_ = metrics->GetCounter("wire.client.retries");
  tx_bytes_counter_ = metrics->GetCounter("wire.client.tx_bytes");
  rx_bytes_counter_ = metrics->GetCounter("wire.client.rx_bytes");
  const size_t kinds =
      static_cast<size_t>(wire::FrameKind::kStatsResponse) + 1;
  tx_bytes_by_kind_.assign(kinds, nullptr);
  rx_bytes_by_kind_.assign(kinds, nullptr);
  for (size_t k = static_cast<size_t>(wire::FrameKind::kHello); k < kinds;
       ++k) {
    const char* name = wire::FrameKindName(static_cast<wire::FrameKind>(k));
    tx_bytes_by_kind_[k] =
        metrics->GetCounter(std::string("wire.client.tx_bytes.") + name);
    rx_bytes_by_kind_[k] =
        metrics->GetCounter(std::string("wire.client.rx_bytes.") + name);
  }
  rtt_hist_ = metrics->GetHistogram("wire.client.rtt_seconds");
  trace_ = options.trace;
}

Result<std::unique_ptr<SocketSolveBackend>> SocketSolveBackend::Create(
    const Options& options) {
  if (options.endpoints.empty()) {
    return Status::InvalidArgument(
        "SocketSolveBackend requires at least one endpoint");
  }
  for (const std::string& spec : options.endpoints) {
    LPLOW_RETURN_IF_ERROR(net::ParseEndpoint(spec).status());
  }
  if (options.max_attempts_per_endpoint < 1 || options.failover_threshold < 1) {
    return Status::InvalidArgument(
        "max_attempts_per_endpoint and failover_threshold must be >= 1");
  }
  return std::unique_ptr<SocketSolveBackend>(new SocketSolveBackend(options));
}

SocketSolveBackend::~SocketSolveBackend() { CloseIdleConnections(); }

void SocketSolveBackend::CloseIdleConnections() {
  for (auto& ep : endpoints_) {
    std::lock_guard<std::mutex> lock(ep->mu);
    for (int fd : ep->idle) net::CloseFd(fd);
    ep->idle.clear();
  }
}

const std::string& SocketSolveBackend::endpoint_path(size_t i) const {
  return endpoints_[i]->spec;
}

SocketSolveBackend::Stats SocketSolveBackend::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

SocketSolveBackend::EndpointStats SocketSolveBackend::endpoint_stats(
    size_t endpoint) const {
  Endpoint& ep = *endpoints_[endpoint];
  std::lock_guard<std::mutex> lock(ep.mu);
  return ep.stats;
}

bool SocketSolveBackend::EndpointHealthy(const Endpoint& ep) const {
  return ep.stats.consecutive_failures < options_.failover_threshold;
}

void SocketSolveBackend::NoteResult(Endpoint& ep, bool success) {
  std::lock_guard<std::mutex> lock(ep.mu);
  if (success) {
    ep.stats.successes++;
    ep.stats.consecutive_failures = 0;
  } else {
    ep.stats.failures++;
    ep.stats.consecutive_failures++;
  }
  ep.stats.healthy = EndpointHealthy(ep);
}

// ---------------------------------------------------------- frame I/O

void SocketSolveBackend::AccountTx(Endpoint& ep, wire::FrameKind kind,
                                   size_t payload_bytes) {
  const uint64_t bytes = wire::kFrameHeaderBytes + payload_bytes;
  tx_bytes_counter_->Increment(bytes);
  const size_t k = static_cast<size_t>(kind);
  if (k < tx_bytes_by_kind_.size() && tx_bytes_by_kind_[k] != nullptr) {
    tx_bytes_by_kind_[k]->Increment(bytes);
  }
  std::lock_guard<std::mutex> lock(ep.mu);
  ep.stats.tx_bytes += bytes;
}

void SocketSolveBackend::AccountRx(Endpoint& ep, wire::FrameKind kind,
                                   size_t payload_bytes) {
  const uint64_t bytes = wire::kFrameHeaderBytes + payload_bytes;
  rx_bytes_counter_->Increment(bytes);
  const size_t k = static_cast<size_t>(kind);
  if (k < rx_bytes_by_kind_.size() && rx_bytes_by_kind_[k] != nullptr) {
    rx_bytes_by_kind_[k]->Increment(bytes);
  }
  std::lock_guard<std::mutex> lock(ep.mu);
  ep.stats.rx_bytes += bytes;
}

Status SocketSolveBackend::SendFrame(Endpoint& ep, int fd,
                                     wire::FrameKind kind,
                                     const std::vector<uint8_t>& payload) {
  Status st = net::WriteFrame(fd, kind, payload);
  if (st.ok()) AccountTx(ep, kind, payload.size());
  return st;
}

Result<wire::Frame> SocketSolveBackend::RecvFrame(Endpoint& ep, int fd,
                                                  int timeout_ms) {
  Result<wire::Frame> frame =
      net::ReadFrame(fd, timeout_ms, options_.max_frame_payload);
  if (frame.ok()) AccountRx(ep, frame->header.kind, frame->payload.size());
  return frame;
}

// ---------------------------------------------------------- connections

Result<int> SocketSolveBackend::LeaseConnection(Endpoint& ep, bool* reused) {
  {
    std::lock_guard<std::mutex> lock(ep.mu);
    if (!ep.idle.empty()) {
      int fd = ep.idle.back();
      ep.idle.pop_back();
      ep.stats.reuses++;
      *reused = true;
      return fd;
    }
    // Every ATTEMPT counts — a dead daemon must show up in `dials`, not
    // hide behind a zero (the failed attempts land in dial_failures).
    ep.stats.dials++;
  }
  *reused = false;
  Result<int> dialed = net::Dial(ep.spec);
  if (!dialed.ok()) {
    std::lock_guard<std::mutex> lock(ep.mu);
    ep.stats.dial_failures++;
    return dialed.status();
  }
  const int fd = *dialed;
  // The daemon greets every connection; consuming (and sanity-checking) the
  // hello here means a pooled connection is always request-ready.
  Result<wire::Frame> frame = RecvFrame(ep, fd, options_.hello_timeout_ms);
  Status st = Status::OK();
  if (!frame.ok()) {
    st = frame.status();
  } else if (frame->header.kind != wire::FrameKind::kHello) {
    st = Status::InvalidArgument("expected hello frame from daemon");
  } else if (Result<wire::Hello> hello =
                 wire::DecodeHelloPayload(frame->payload);
             !hello.ok()) {
    st = hello.status();
  }
  if (!st.ok()) {
    net::CloseFd(fd);
    std::lock_guard<std::mutex> lock(ep.mu);
    ep.stats.dial_failures++;
    return st;
  }
  return fd;
}

void SocketSolveBackend::ReturnConnection(Endpoint& ep, int fd) {
  std::lock_guard<std::mutex> lock(ep.mu);
  if (ep.idle.size() < options_.max_pooled_connections) {
    ep.idle.push_back(fd);
    return;
  }
  net::CloseFd(fd);
}

// ------------------------------------------------------------- exchange

Status SocketSolveBackend::LeasedExchange(Endpoint& ep,
                                          const std::vector<uint8_t>& request,
                                          uint64_t job_id,
                                          std::vector<uint8_t>* response,
                                          RemoteOutcome* outcome,
                                          bool* retryable) {
  *outcome = RemoteOutcome::kError;
  *retryable = false;
  bool reused = false;
  Result<int> leased = [&]() -> Result<int> {
    trace::TraceSpan pool_span(trace_, "client.pool_wait");
    pool_span.Arg("job_id", job_id);
    return LeaseConnection(ep, &reused);
  }();
  if (!leased.ok()) {
    // Dialing failed; another immediate dial would fail the same way.
    NoteResult(ep, /*success=*/false);
    return leased.status();
  }
  const int fd = *leased;
  const uint64_t rtt_start = trace::TraceRecorder::NowMicros();
  Status st = SendFrame(ep, fd, wire::FrameKind::kSolveRequest, request);
  if (st.ok()) {
    Result<wire::Frame> frame =
        RecvFrame(ep, fd, options_.request_timeout_ms);
    if (frame.ok()) {
      // A completed round trip (any frame kind): histogram always, span
      // only when a recorder is attached. Timeouts are not round trips.
      const uint64_t rtt_end = trace::TraceRecorder::NowMicros();
      rtt_hist_->Record(static_cast<double>(rtt_end - rtt_start) * 1e-6);
      if (trace_ != nullptr) {
        trace_->RecordComplete("client.rtt", rtt_start, rtt_end,
                               trace_->CurrentContext(),
                               {{"job_id", job_id},
                                {"bytes", request.size()}});
      }
      switch (frame->header.kind) {
        case wire::FrameKind::kSolveResponse: {
          Result<wire::SolveResponseHead> head =
              wire::PeekSolveResponseHead(frame->payload);
          if (!head.ok() || head->job_id != job_id) {
            // Desynced or garbled stream — this connection cannot be
            // trusted for the next request either. A reused connection
            // may just have gone stale in the pool; worth a fresh dial.
            net::CloseFd(fd);
            NoteResult(ep, /*success=*/false);
            *retryable = true;
            return head.ok() ? Status::Internal(
                                   "solve response for a different job id")
                             : head.status();
          }
          ReturnConnection(ep, fd);
          NoteResult(ep, /*success=*/true);
          if (!head->status.ok()) {
            // Deterministic server-side refusal: the daemon decoded the
            // job and said no. Every replica would refuse identically,
            // so the caller goes straight to the local fallback.
            *outcome = RemoteOutcome::kRefused;
            return Status::FailedPrecondition("server refused solve: " +
                                              head->status.ToString());
          }
          *outcome = RemoteOutcome::kOk;
          *response = std::move(frame->payload);
          return Status::OK();
        }
        case wire::FrameKind::kBusy: {
          // The daemon is saturated, not broken: keep the connection and
          // the endpoint's health, let the caller fail over.
          ReturnConnection(ep, fd);
          *outcome = RemoteOutcome::kBusy;
          return Status::ResourceExhausted("endpoint busy");
        }
        case wire::FrameKind::kError: {
          net::CloseFd(fd);
          NoteResult(ep, /*success=*/false);
          return wire::DecodeErrorPayload(frame->payload);
        }
        default: {
          net::CloseFd(fd);
          NoteResult(ep, /*success=*/false);
          *retryable = true;
          return Status::InvalidArgument("unexpected frame kind from daemon");
        }
      }
    }
    st = frame.status();
    if (st.code() == StatusCode::kDeadlineExceeded) {
      // Timed out. The response may still arrive later, so the connection
      // can never be reused — pooling it would hand a stale response to
      // the next request.
      net::CloseFd(fd);
      NoteResult(ep, /*success=*/false);
      *outcome = RemoteOutcome::kTimeout;
      return st;
    }
  }
  // Write failed or the read hit a closed/garbled peer. A reused
  // connection may simply have gone stale in the pool (the daemon
  // restarted, an idle timeout...) — worth one fresh dial.
  net::CloseFd(fd);
  NoteResult(ep, /*success=*/false);
  *retryable = true;
  return st;
}

// ------------------------------------------------------------- dispatch

Status SocketSolveBackend::TryEndpoint(Endpoint& ep,
                                       const std::vector<uint8_t>& request,
                                       uint64_t job_id,
                                       std::vector<uint8_t>* response,
                                       RemoteOutcome* outcome) {
  Status last = Status::Internal("no attempt made");
  *outcome = RemoteOutcome::kError;
  for (int attempt = 0; attempt < options_.max_attempts_per_endpoint;
       ++attempt) {
    if (attempt > 0) retries_counter_->Increment();
    bool retryable = false;
    Status st = LeasedExchange(ep, request, job_id, response, outcome,
                               &retryable);
    if (st.ok()) return st;
    last = st;
    if (!retryable) return st;
  }
  return last;
}

bool SocketSolveBackend::ExecuteSerialized(uint64_t job_id, const char* kind,
                                           const std::vector<uint8_t>& request,
                                           std::vector<uint8_t>* response) {
  (void)kind;
  AdmissionSlot slot(&admission_mu_, &admission_cv_, &inflight_,
                     options_.max_inflight);
  trace::TraceSpan span(trace_, "client.solve");
  span.Arg("job_id", job_id);
  span.Arg("bytes", request.size());
  requests_counter_->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests++;
  }
  const size_t n = endpoints_.size();
  const size_t home = static_cast<size_t>(StableJobHash(job_id) % n);
  // In shard mode the home endpoint OWNS this job's hash slice: no other
  // daemon should ever see the job, so a failed shard means local fallback
  // (bit-identical by the determinism contract), not failover.
  const size_t fan =
      options_.routing == RoutingMode::kShardByJobHash ? 1 : n;
  for (size_t offset = 0; offset < fan; ++offset) {
    Endpoint& ep = *endpoints_[(home + offset) % n];
    if (offset > 0) {
      // Skip endpoints already marked down — but the home endpoint (offset
      // 0) is always probed, so a revived daemon gets rediscovered and the
      // routing returns to its stable assignment.
      bool healthy;
      {
        std::lock_guard<std::mutex> lock(ep.mu);
        healthy = EndpointHealthy(ep);
      }
      if (!healthy) continue;
      failover_counter_->Increment();
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.failovers++;
    }
    RemoteOutcome outcome = RemoteOutcome::kError;
    Status st = TryEndpoint(ep, request, job_id, response, &outcome);
    if (st.ok()) {
      remote_success_counter_->Increment();
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.remote_success++;
      return true;
    }
    if (outcome == RemoteOutcome::kRefused) {
      // Deterministic server refusal: identical on every replica, so
      // failover is pointless — straight to the local fallback.
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.remote_errors++;
      return false;
    }
    {
      // Classification is by the typed outcome the exchange observed — a
      // kBusy frame or a deadline expiry — never by status-text matching
      // (an oversized-frame rejection is kResourceExhausted too, and must
      // count as neither busy nor timeout).
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (outcome == RemoteOutcome::kBusy) {
        stats_.busy++;
      } else if (outcome == RemoteOutcome::kTimeout) {
        stats_.timeouts++;
      }
    }
    LPLOW_LOG(kWarning) << "endpoint " << ep.spec << " failed ("
                        << st.ToString() << "); "
                        << (offset + 1 < fan ? "failing over"
                                             : "falling back");
  }
  return false;
}

void SocketSolveBackend::Execute(uint64_t job_id, const char* kind,
                                 const std::function<void()>& task) {
  (void)job_id;
  (void)kind;
  task();
  local_fallback_counter_->Increment();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.local_fallbacks++;
}

// -------------------------------------------------------- control plane

Status SocketSolveBackend::Ping(size_t endpoint) {
  if (endpoint >= endpoints_.size()) {
    return Status::InvalidArgument("endpoint index out of range");
  }
  Endpoint& ep = *endpoints_[endpoint];
  bool reused = false;
  LPLOW_ASSIGN_OR_RETURN(int fd, LeaseConnection(ep, &reused));
  Status st = SendFrame(ep, fd, wire::FrameKind::kPing, {});
  if (st.ok()) {
    Result<wire::Frame> frame =
        RecvFrame(ep, fd, options_.request_timeout_ms);
    if (frame.ok() && frame->header.kind == wire::FrameKind::kPong) {
      ReturnConnection(ep, fd);
      NoteResult(ep, /*success=*/true);
      return Status::OK();
    }
    st = frame.ok() ? Status::InvalidArgument("expected pong from daemon")
                    : frame.status();
  }
  net::CloseFd(fd);
  NoteResult(ep, /*success=*/false);
  return st;
}

Result<wire::StatsResponse> SocketSolveBackend::ScrapeStats(
    size_t endpoint, bool include_trace) {
  if (endpoint >= endpoints_.size()) {
    return Status::InvalidArgument("endpoint index out of range");
  }
  Endpoint& ep = *endpoints_[endpoint];
  bool reused = false;
  LPLOW_ASSIGN_OR_RETURN(int fd, LeaseConnection(ep, &reused));
  wire::StatsRequest request;
  request.include_metrics = true;
  request.include_trace = include_trace;
  Status st = SendFrame(ep, fd, wire::FrameKind::kStatsRequest,
                        wire::EncodeStatsRequestPayload(request));
  if (st.ok()) {
    Result<wire::Frame> frame =
        RecvFrame(ep, fd, options_.request_timeout_ms);
    if (frame.ok() && frame->header.kind == wire::FrameKind::kStatsResponse) {
      Result<wire::StatsResponse> stats =
          wire::DecodeStatsResponsePayload(frame->payload);
      if (stats.ok()) {
        ReturnConnection(ep, fd);
        NoteResult(ep, /*success=*/true);
        return stats;
      }
      st = stats.status();
    } else if (frame.ok() && frame->header.kind == wire::FrameKind::kError) {
      // The daemon rejected the request with kError; surface its message
      // (rather than a garbled-stream guess) to the scraper.
      st = wire::DecodeErrorPayload(frame->payload);
    } else if (frame.ok()) {
      st = Status::InvalidArgument("unexpected reply to stats request");
    } else {
      st = frame.status();
    }
  }
  net::CloseFd(fd);
  NoteResult(ep, /*success=*/false);
  return st;
}

Status SocketSolveBackend::RequestServerShutdown(size_t endpoint) {
  if (endpoint >= endpoints_.size()) {
    return Status::InvalidArgument("endpoint index out of range");
  }
  Endpoint& ep = *endpoints_[endpoint];
  bool reused = false;
  LPLOW_ASSIGN_OR_RETURN(int fd, LeaseConnection(ep, &reused));
  Status st = SendFrame(ep, fd, wire::FrameKind::kShutdown, {});
  if (st.ok()) {
    Result<wire::Frame> frame =
        RecvFrame(ep, fd, options_.request_timeout_ms);
    if (frame.ok() && frame->header.kind == wire::FrameKind::kPong) {
      st = Status::OK();
    } else if (frame.ok() && frame->header.kind == wire::FrameKind::kError) {
      st = wire::DecodeErrorPayload(frame->payload);
    } else if (frame.ok()) {
      st = Status::InvalidArgument("unexpected reply to shutdown");
    } else {
      st = frame.status();
    }
  }
  // The daemon is exiting (or refused); either way this connection is done.
  net::CloseFd(fd);
  return st;
}

Result<wire::StatsResponse> ScrapeDaemonStats(const std::string& endpoint,
                                              bool include_trace,
                                              int timeout_ms) {
  SocketSolveBackend::Options options;
  options.endpoints = {endpoint};
  options.request_timeout_ms = timeout_ms;
  options.hello_timeout_ms = timeout_ms;
  LPLOW_ASSIGN_OR_RETURN(std::unique_ptr<SocketSolveBackend> backend,
                         SocketSolveBackend::Create(options));
  return backend->ScrapeStats(0, include_trace);
}

}  // namespace runtime
}  // namespace lplow
