#include "src/runtime/lp_served.h"

#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "src/runtime/net_io.h"
#include "src/runtime/wire.h"

namespace lplow {
namespace runtime {

SolveDaemon::SolveDaemon(const Options& options)
    : options_(options), trace_(options.trace) {
  ShardedSolverService::Options service_options;
  service_options.num_shards = options.num_shards;
  service_options.threads_per_shard = options.threads_per_shard;
  service_options.metrics = options.metrics;
  service_options.trace = options.trace;
  service_ = std::make_unique<ShardedSolverService>(service_options);
  metrics_ =
      options.metrics != nullptr ? options.metrics : &MetricsRegistry::Global();
  connections_counter_ = metrics_->GetCounter("wire.daemon.connections");
  requests_counter_ = metrics_->GetCounter("wire.daemon.requests");
  solved_counter_ = metrics_->GetCounter("wire.daemon.solved");
  solve_errors_counter_ = metrics_->GetCounter("wire.daemon.solve_errors");
  busy_counter_ = metrics_->GetCounter("wire.daemon.busy_rejected");
  malformed_counter_ = metrics_->GetCounter("wire.daemon.malformed");
  pings_counter_ = metrics_->GetCounter("wire.daemon.pings");
  stats_requests_counter_ = metrics_->GetCounter("wire.daemon.stats_requests");
  request_bytes_hist_ = metrics_->GetHistogram("wire.daemon.request_bytes");
}

Result<std::unique_ptr<SolveDaemon>> SolveDaemon::Start(
    const Options& options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("SolveDaemon requires a socket_path");
  }
  if (options.num_shards < 1 || options.threads_per_shard < 1) {
    return Status::InvalidArgument(
        "SolveDaemon requires num_shards >= 1 and threads_per_shard >= 1");
  }
  // No make_unique: the constructor is private.
  std::unique_ptr<SolveDaemon> daemon(new SolveDaemon(options));
  LPLOW_ASSIGN_OR_RETURN(
      daemon->listen_fd_,
      net::Listen(options.socket_path, /*backlog=*/64,
                  &daemon->bound_endpoint_));
  daemon->acceptor_ = std::thread([d = daemon.get()] { d->AcceptLoop(); });
  return daemon;
}

SolveDaemon::~SolveDaemon() { Shutdown(); }

void SolveDaemon::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void SolveDaemon::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void SolveDaemon::Shutdown() {
  RequestShutdown();
  if (stopping_.exchange(true)) {
    // A concurrent or earlier Shutdown owns the teardown; wait for the
    // acceptor it joins rather than racing it.
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_cv_.wait(lock, [this] { return shut_down_; });
    return;
  }
  // shutdown() fails the blocking accept and the acceptor exits. close()
  // alone does NOT wake a thread already blocked in accept(2) on Linux —
  // the shutdown is what unblocks it. The fd itself is closed only after
  // the join: the acceptor reads listen_fd_ outside the lock, so it must
  // be gone before the value changes.
  // A daemon whose Start failed at Listen (e.g. kAlreadyExists: a live
  // daemon owns the path) never held the socket — its teardown must not
  // unlink the owner's address out from under it.
  const bool owned_listener = listen_fd_ >= 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ::shutdown(listen_fd_, SHUT_RDWR);
    // Handlers block in recv; shutdown() (not close — the handler still owns
    // the fd and closes it itself, so the descriptor cannot be reused under
    // it) makes those reads return "peer closed" and the handlers exit.
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  net::CloseFd(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  service_->Drain();
  // Only a Unix-family endpoint leaves a filesystem artifact to remove (a
  // TCP listener's port is released when the fd closes), and only if this
  // daemon actually bound it.
  if (Result<net::Endpoint> parsed = net::ParseEndpoint(options_.socket_path);
      owned_listener && parsed.ok() &&
      parsed->family == net::Endpoint::Family::kUnix) {
    unlink(parsed->path.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shut_down_ = true;
  }
  shutdown_cv_.notify_all();
}

SolveDaemon::Stats SolveDaemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SolveDaemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<int> accepted = net::AcceptConnection(listen_fd_);
    if (!accepted.ok()) break;  // Listen fd closed: shutdown.
    const int fd = *accepted;
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      net::CloseFd(fd);
      break;
    }
    stats_.connections++;
    connections_counter_->Increment();
    connection_fds_.insert(fd);
    handlers_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void SolveDaemon::HandleConnection(int fd) {
  wire::Hello hello;
  hello.num_shards = service_->num_shards();
  hello.max_inflight = options_.max_inflight;
  Status st = net::WriteFrame(fd, wire::FrameKind::kHello,
                              wire::EncodeHelloPayload(hello));
  while (st.ok() && !stopping_.load(std::memory_order_acquire)) {
    Result<wire::Frame> frame =
        net::ReadFrame(fd, /*timeout_ms=*/-1, options_.max_frame_payload);
    if (!frame.ok()) {
      // A peer close (clean disconnect or our own shutdown) ends the
      // conversation quietly; anything else is a protocol violation the
      // peer gets told about before the cut.
      if (frame.status().code() != StatusCode::kOutOfRange) {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.malformed++;
        malformed_counter_->Increment();
        net::WriteFrame(fd, wire::FrameKind::kError,
                        wire::EncodeErrorPayload(frame.status()));
      }
      break;
    }
    switch (frame->header.kind) {
      case wire::FrameKind::kPing: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          stats_.pings++;
        }
        pings_counter_->Increment();
        st = net::WriteFrame(fd, wire::FrameKind::kPong, {});
        break;
      }
      case wire::FrameKind::kSolveRequest: {
        ServeRequest(fd, frame->payload);
        break;
      }
      case wire::FrameKind::kStatsRequest: {
        st = ServeStats(fd, frame->payload);
        break;
      }
      case wire::FrameKind::kShutdown: {
        if (options_.allow_remote_shutdown) {
          // Ack first so the requesting client sees a response before the
          // connection drops, then flag the waiter (the daemon main thread
          // performs the actual Shutdown — never this handler, which would
          // otherwise join itself).
          net::WriteFrame(fd, wire::FrameKind::kPong, {});
          RequestShutdown();
        } else {
          net::WriteFrame(
              fd, wire::FrameKind::kError,
              wire::EncodeErrorPayload(Status::FailedPrecondition(
                  "daemon does not allow remote shutdown")));
        }
        st = Status::OutOfRange("connection done");  // Ends the loop.
        break;
      }
      default: {
        // kHello / kSolveResponse / kBusy / kPong / kError are
        // daemon-to-client kinds; a client sending one is broken.
        {
          std::lock_guard<std::mutex> lock(mu_);
          stats_.malformed++;
          malformed_counter_->Increment();
        }
        net::WriteFrame(fd, wire::FrameKind::kError,
                        wire::EncodeErrorPayload(Status::InvalidArgument(
                            "unexpected frame kind from client")));
        st = Status::OutOfRange("connection done");
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  connection_fds_.erase(fd);
  net::CloseFd(fd);
}

void SolveDaemon::ServeRequest(int fd, const std::vector<uint8_t>& payload) {
  if (options_.max_inflight > 0) {
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
        options_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.busy_rejected++;
        busy_counter_->Increment();
      }
      net::WriteFrame(fd, wire::FrameKind::kBusy, {});
      return;
    }
  }
  Result<wire::SolveRequestHead> head =
      wire::PeekSolveRequestHead(payload);
  if (!head.ok()) {
    if (options_.max_inflight > 0) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.malformed++;
    malformed_counter_->Increment();
    net::WriteFrame(fd, wire::FrameKind::kError,
                    wire::EncodeErrorPayload(head.status()));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.requests++;
  }
  requests_counter_->Increment();
  request_bytes_hist_->Record(static_cast<double>(payload.size()));
  // The daemon-side root span: parented on the client's wire context when
  // the request carried one, so the client's solve span and this
  // request's decode/solve/encode children share one trace id.
  trace::TraceSpan req_span(
      trace_, "daemon.request",
      trace::SpanContext{head->trace.trace_id, head->trace.parent_span});
  req_span.Arg("job_id", head->job_id);
  req_span.Arg("bytes", payload.size());
  // Route through the sharded service exactly like the in-process backend:
  // same StableJobHash(job_id) % shards shard, same per-shard accounting,
  // so a served cluster's stats line up with the local ones.
  Result<std::vector<uint8_t>> response =
      Status::Internal("solve did not run");
  wire::ServeOptions serve_options;
  serve_options.trace = trace_;
  serve_options.parent = req_span.context();
  service_->Execute(head->job_id, "WireSolve",
                    [&payload, &response, &serve_options] {
    response = wire::ServeSolveRequestPayload(payload, serve_options);
  });
  if (options_.max_inflight > 0) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (response.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.solved++;
    }
    solved_counter_->Increment();
    net::WriteFrame(fd, wire::FrameKind::kSolveResponse, *response);
    return;
  }
  // The job decoded far enough to know its id but could not be served
  // (unknown kind, truncated constraints, hostile dims...). Deterministic
  // failure: tell the client inside a SolveResponse so it can fall back to
  // solving locally instead of burning retries.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.solve_errors++;
  }
  solve_errors_counter_->Increment();
  net::WriteFrame(
      fd, wire::FrameKind::kSolveResponse,
      wire::EncodeSolveErrorResponsePayload(head->job_id, response.status()));
}

Status SolveDaemon::ServeStats(int fd, const std::vector<uint8_t>& payload) {
  Result<wire::StatsRequest> request =
      wire::DecodeStatsRequestPayload(payload);
  if (!request.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.malformed++;
      malformed_counter_->Increment();
    }
    net::WriteFrame(fd, wire::FrameKind::kError,
                    wire::EncodeErrorPayload(request.status()));
    return Status::OutOfRange("connection done");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.stats_requests++;
  }
  stats_requests_counter_->Increment();
  wire::StatsResponse response;
  if (request->include_metrics) response.metrics_json = metrics_->ToJson();
  if (request->include_trace && trace_ != nullptr) {
    response.trace_json = trace_->ToChromeJson();
  }
  return net::WriteFrame(fd, wire::FrameKind::kStatsResponse,
                         wire::EncodeStatsResponsePayload(response));
}

}  // namespace runtime
}  // namespace lplow
