// lp_served daemon + SocketSolveBackend over loopback Unix and TCP sockets
// (label `slow`; also in the TSan CI matrix). Pins the ISSUE's acceptance
// contract: engine transcripts (deterministic counters + basis hashes) are
// bit-identical between the serial path, the in-process
// ShardedSolverService, and the socket-served backend across shard counts
// {1,2,4}, concurrent engine callers {2,4}, transports {unix, tcp}, and
// multi-daemon shard clusters {1,2,3} — plus the failure ladder: failover
// off a dead endpoint (with dial-attempt accounting), local fallback when
// every endpoint is dead, clean handling of busy, mute (timeout),
// garbage-speaking, and oversized-reply servers, and the live-socket
// hijack refusal.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/models/coordinator/coordinator_solver.h"
#include "src/models/deterministic/deterministic_solver.h"
#include "src/models/mpc/mpc_solver.h"
#include "src/models/streaming/streaming_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/lp_client.h"
#include "src/runtime/lp_served.h"
#include "src/runtime/net_io.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/runtime/trace.h"
#include "src/runtime/wire.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/testing_util.h"

namespace lplow {
namespace {

namespace wire = runtime::wire;
namespace net = runtime::net;
using runtime::MetricsRegistry;
using runtime::ShardedSolverService;
using runtime::SocketSolveBackend;
using runtime::SolveDaemon;
using testing_util::BasisHash;

std::string TestSocketPath(const std::string& name) {
  return "/tmp/lplow_" + std::to_string(::getpid()) + "_" + name + ".sock";
}

// ------------------------------------------------ transcript fingerprints
// Same fingerprint the in-process backend sweep pins
// (sharded_service_test.cc): basis bytes + every deterministic counter.

struct Transcript {
  uint64_t basis_hash = 0;
  uint64_t iterations = 0;
  uint64_t successful = 0;
  uint64_t rounds_or_passes = 0;
  uint64_t bytes = 0;
  uint64_t sample_bytes = 0;

  bool operator==(const Transcript&) const = default;
};

struct ModelTranscripts {
  Transcript coordinator;
  Transcript mpc;
  Transcript streaming;
  Transcript deterministic;

  bool operator==(const ModelTranscripts&) const = default;
};

template <LpTypeProblem P>
ModelTranscripts RunAllModels(
    const P& problem,
    const std::vector<std::vector<typename P::Constraint>>& parts,
    const std::vector<typename P::Constraint>& input,
    const runtime::RuntimeOptions& runtime) {
  ModelTranscripts out;
  {
    coord::CoordinatorOptions opt;
    opt.net.scale = 0.1;
    opt.seed = 0x5A4DED01ULL;
    opt.runtime = runtime;
    coord::CoordinatorStats stats;
    auto result = coord::SolveCoordinator(problem, parts, opt, &stats);
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      out.coordinator =
          Transcript{BasisHash(problem, *result), stats.iterations,
                     stats.successful_iterations, stats.rounds,
                     stats.total_bytes, stats.sample_bytes};
    }
  }
  {
    mpc::MpcOptions opt;
    opt.delta = 0.5;
    opt.net.scale = 0.1;
    opt.seed = 0x5A4DED02ULL;
    opt.runtime = runtime;
    mpc::MpcStats stats;
    auto result = mpc::SolveMpc(problem, parts, opt, &stats);
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      out.mpc = Transcript{BasisHash(problem, *result), stats.iterations,
                           stats.successful_iterations, stats.rounds,
                           stats.total_bytes, stats.sample_bytes};
    }
  }
  {
    stream::VectorStream<typename P::Constraint> vs(input);
    stream::StreamingOptions opt;
    opt.net.scale = 0.1;
    opt.seed = 0x5A4DED03ULL;
    opt.runtime = runtime;
    stream::StreamingStats stats;
    auto result = stream::SolveStreaming(problem, vs, opt, &stats);
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      out.streaming =
          Transcript{BasisHash(problem, *result), stats.iterations,
                     stats.successful_iterations, stats.passes,
                     stats.peak_bytes, stats.sample_bytes};
    }
  }
  {
    det::DeterministicOptions opt;
    opt.net.scale = 0.1;
    opt.runtime = runtime;
    det::DeterministicStats stats;
    auto result = det::SolveDeterministic(problem, parts, opt, &stats);
    EXPECT_TRUE(result.ok());
    if (result.ok()) {
      out.deterministic =
          Transcript{BasisHash(problem, *result), stats.iterations,
                     stats.successful_iterations, stats.merge_rounds,
                     stats.candidate_bytes, stats.sample_bytes};
    }
  }
  return out;
}

// --------------------------------------------------- transcript identity

TEST(SocketBackendTest, TranscriptsBitIdenticalOverLoopbackAcrossShards) {
  auto c = testing_util::MakeFeasibleLpCase(1500, 2, 71);
  Rng rng(0xD15C1ULL);
  auto parts = workload::Partition(c.constraints, 8, true, &rng);

  // Reference: the serial path, no backend.
  ModelTranscripts want =
      RunAllModels(c.problem, parts, c.constraints, runtime::RuntimeOptions{});
  ASSERT_NE(want.coordinator, Transcript{});

  // Cross-check: the in-process sharded backend reproduces it (so the
  // loopback comparison below is a three-way identity).
  {
    MetricsRegistry reg;
    ShardedSolverService::Options sopt;
    sopt.num_shards = 2;
    sopt.threads_per_shard = 2;
    sopt.metrics = &reg;
    ShardedSolverService service(sopt);
    runtime::RuntimeOptions ropt;
    ropt.num_threads = 2;
    ropt.solver_backend = &service;
    ropt.oversized_basis_threshold = 1;
    EXPECT_EQ(RunAllModels(c.problem, parts, c.constraints, ropt), want)
        << "in-process sharded transcript drifted";
  }

  // (daemon shards, engine threads): the last pair runs 4 concurrent
  // callers, each leasing its own pooled connection to a 2x2 daemon.
  const std::pair<size_t, size_t> configs[] = {{1, 2}, {2, 2}, {4, 2}, {2, 4}};
  for (const auto& [shards, threads] : configs) {
    MetricsRegistry reg;
    SolveDaemon::Options dopt;
    dopt.socket_path = TestSocketPath("loopback" + std::to_string(shards) +
                                      "x" + std::to_string(threads));
    dopt.num_shards = shards;
    dopt.threads_per_shard = 2;
    dopt.metrics = &reg;
    auto daemon = SolveDaemon::Start(dopt);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

    SocketSolveBackend::Options copt;
    copt.endpoints = {dopt.socket_path};
    copt.metrics = &reg;
    auto client = SocketSolveBackend::Create(copt);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    runtime::RuntimeOptions ropt;
    ropt.num_threads = threads;
    ropt.solver_backend = client->get();
    ropt.oversized_basis_threshold = 1;  // Route every basis solve.
    ModelTranscripts got = RunAllModels(c.problem, parts, c.constraints, ropt);
    EXPECT_EQ(got, want) << "loopback transcript drifted at shards=" << shards
                         << " threads=" << threads;

    // The solves really crossed the socket: no local fallback ran, and the
    // daemon solved exactly what the client counts as remote successes.
    auto cstats = (*client)->stats();
    EXPECT_GT(cstats.remote_success, 0u);
    EXPECT_EQ(cstats.local_fallbacks, 0u);
    EXPECT_EQ(cstats.remote_errors, 0u);
    EXPECT_EQ(cstats.timeouts, 0u);
    auto dstats = (*daemon)->stats();
    EXPECT_EQ(dstats.solved, cstats.remote_success);
    EXPECT_EQ(dstats.malformed, 0u);
    EXPECT_GT((*daemon)->service().total_stats().solves, 0u);

    (*daemon)->Shutdown();
  }
}

TEST(SocketBackendTest, TranscriptsBitIdenticalOverTcpLoopback) {
  auto c = testing_util::MakeFeasibleLpCase(1000, 2, 31);
  Rng rng(0x7C9ULL);
  auto parts = workload::Partition(c.constraints, 6, true, &rng);

  ModelTranscripts want =
      RunAllModels(c.problem, parts, c.constraints, runtime::RuntimeOptions{});
  ASSERT_NE(want.coordinator, Transcript{});

  for (size_t shards : {1u, 2u}) {
    MetricsRegistry reg;
    SolveDaemon::Options dopt;
    dopt.socket_path = "tcp:127.0.0.1:0";  // Ephemeral port.
    dopt.num_shards = shards;
    dopt.threads_per_shard = 2;
    dopt.metrics = &reg;
    auto daemon = SolveDaemon::Start(dopt);
    ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
    // The bound endpoint carries the kernel-assigned port.
    const std::string bound = (*daemon)->bound_endpoint();
    ASSERT_NE(bound, dopt.socket_path) << "ephemeral port not resolved";

    SocketSolveBackend::Options copt;
    copt.endpoints = {bound};
    copt.metrics = &reg;
    auto client = SocketSolveBackend::Create(copt);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    runtime::RuntimeOptions ropt;
    ropt.num_threads = 2;
    ropt.solver_backend = client->get();
    ropt.oversized_basis_threshold = 1;
    ModelTranscripts got = RunAllModels(c.problem, parts, c.constraints, ropt);
    EXPECT_EQ(got, want) << "tcp transcript drifted at shards=" << shards;

    auto cstats = (*client)->stats();
    EXPECT_GT(cstats.remote_success, 0u);
    EXPECT_EQ(cstats.local_fallbacks, 0u);
    // The transport's bytes really were accounted.
    auto estats = (*client)->endpoint_stats(0);
    EXPECT_GT(estats.tx_bytes, 0u);
    EXPECT_GT(estats.rx_bytes, 0u);
    (*daemon)->Shutdown();
  }
}

TEST(SocketBackendTest, ShardedDaemonClusterIsBitIdenticalAcrossSizes) {
  auto c = testing_util::MakeFeasibleLpCase(1000, 2, 53);
  Rng rng(0x5AADD5ULL);
  auto parts = workload::Partition(c.constraints, 6, true, &rng);

  ModelTranscripts want =
      RunAllModels(c.problem, parts, c.constraints, runtime::RuntimeOptions{});
  ASSERT_NE(want.coordinator, Transcript{});

  for (size_t cluster : {1u, 2u, 3u}) {
    MetricsRegistry reg;
    std::vector<std::unique_ptr<SolveDaemon>> daemons;
    std::vector<std::string> endpoints;
    for (size_t i = 0; i < cluster; ++i) {
      SolveDaemon::Options dopt;
      dopt.socket_path = TestSocketPath("cluster" + std::to_string(cluster) +
                                        "_" + std::to_string(i));
      dopt.num_shards = 1;
      dopt.threads_per_shard = 2;
      dopt.metrics = &reg;
      auto daemon = SolveDaemon::Start(dopt);
      ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
      endpoints.push_back(dopt.socket_path);
      daemons.push_back(std::move(*daemon));
    }

    SocketSolveBackend::Options copt;
    copt.endpoints = endpoints;
    copt.routing = SocketSolveBackend::RoutingMode::kShardByJobHash;
    copt.metrics = &reg;
    auto client = SocketSolveBackend::Create(copt);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    runtime::RuntimeOptions ropt;
    ropt.num_threads = 2;
    ropt.solver_backend = client->get();
    ropt.oversized_basis_threshold = 1;
    ModelTranscripts got = RunAllModels(c.problem, parts, c.constraints, ropt);
    EXPECT_EQ(got, want) << "sharded-cluster transcript drifted at size="
                         << cluster;

    // Every remote solve landed on exactly one daemon of the cluster, and
    // nothing fell back or moved off its home shard.
    auto cstats = (*client)->stats();
    EXPECT_GT(cstats.remote_success, 0u);
    EXPECT_EQ(cstats.local_fallbacks, 0u);
    EXPECT_EQ(cstats.failovers, 0u);
    uint64_t daemon_solved = 0;
    for (auto& daemon : daemons) daemon_solved += daemon->stats().solved;
    EXPECT_EQ(daemon_solved, cstats.remote_success);
    for (auto& daemon : daemons) daemon->Shutdown();
  }
}

// ------------------------------------------------------------- failover

TEST(SocketBackendTest, FailsOverFromADeadEndpoint) {
  auto c = testing_util::MakeFeasibleLpCase(64, 2, 5);

  MetricsRegistry reg;
  SolveDaemon::Options dopt;
  dopt.socket_path = TestSocketPath("failover_live");
  dopt.num_shards = 2;
  dopt.metrics = &reg;
  auto daemon = SolveDaemon::Start(dopt);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  SocketSolveBackend::Options copt;
  // Endpoint 0 never existed; jobs homed there must fail over to 1.
  copt.endpoints = {TestSocketPath("failover_dead"), dopt.socket_path};
  copt.failover_threshold = 3;
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  size_t homed_dead = 0;
  for (uint64_t job_id = 0; job_id < 24; ++job_id) {
    if (runtime::StableJobHash(job_id) % 2 == 0) ++homed_dead;
    auto request = wire::EncodeSolveRequestPayload(
        job_id, c.problem,
        std::span<const Halfspace>(c.constraints.data(),
                                   c.constraints.size()));
    std::vector<uint8_t> response;
    ASSERT_TRUE(
        (*client)->ExecuteSerialized(job_id, "test", request, &response))
        << "job " << job_id << " was not served";
    auto decoded =
        wire::DecodeSolveResponsePayload(c.problem, response, job_id);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  }
  ASSERT_GT(homed_dead, 0u);  // The hash really homed some jobs on the dead end.

  auto stats = (*client)->stats();
  EXPECT_EQ(stats.remote_success, 24u);
  EXPECT_GT(stats.failovers, 0u);
  auto dead = (*client)->endpoint_stats(0);
  EXPECT_GT(dead.failures, 0u);
  EXPECT_FALSE(dead.healthy);  // Threshold consecutive dial failures.
  // Dial accounting counts ATTEMPTS: a daemon that never answered still
  // shows its dials, and every one of them as a dial failure (the old
  // code only counted successful hellos, so a dead endpoint reported 0
  // dials — indistinguishable from "never tried").
  EXPECT_GT(dead.dials, 0u);
  EXPECT_EQ(dead.dial_failures, dead.dials);
  auto live = (*client)->endpoint_stats(1);
  EXPECT_TRUE(live.healthy);
  EXPECT_GT(live.dials, 0u);
  EXPECT_EQ(live.dial_failures, 0u);
  (*daemon)->Shutdown();
}

TEST(SocketBackendTest, AllEndpointsDeadFallsBackToIdenticalLocalSolve) {
  auto c = testing_util::MakeFeasibleLpCase(400, 2, 9);
  Rng rng(0xD15C1ULL);
  auto parts = workload::Partition(c.constraints, 4, true, &rng);

  ModelTranscripts want =
      RunAllModels(c.problem, parts, c.constraints, runtime::RuntimeOptions{});

  MetricsRegistry reg;
  SocketSolveBackend::Options copt;
  copt.endpoints = {TestSocketPath("dead0"), TestSocketPath("dead1")};
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  runtime::RuntimeOptions ropt;
  ropt.solver_backend = client->get();
  ropt.oversized_basis_threshold = 1;
  ModelTranscripts got = RunAllModels(c.problem, parts, c.constraints, ropt);
  EXPECT_EQ(got, want)
      << "local fallback transcript differs from the serial path";

  auto stats = (*client)->stats();
  EXPECT_EQ(stats.remote_success, 0u);
  EXPECT_GT(stats.local_fallbacks, 0u);
  EXPECT_EQ(stats.local_fallbacks, stats.requests);
}

// ----------------------------------------------------- hostile servers

/// A scripted one-connection server: sends `hello_bytes` on accept, then
/// answers every request frame with `reply` (empty = stay mute).
class FakeServer {
 public:
  FakeServer(const std::string& path, std::vector<uint8_t> hello_bytes,
             std::vector<uint8_t> reply)
      : path_(path) {
    auto listen = net::ListenUnix(path, 4);
    EXPECT_TRUE(listen.ok()) << listen.status().ToString();
    listen_fd_ = *listen;
    thread_ = std::thread([this, hello = std::move(hello_bytes),
                           reply = std::move(reply)] {
      while (true) {
        auto accepted = net::AcceptConnection(listen_fd_);
        if (!accepted.ok()) return;  // Listen fd closed: shutting down.
        int fd = *accepted;
        if (!hello.empty()) {
          (void)net::WriteAll(fd, hello.data(), hello.size());
        }
        // Serve request frames until the peer hangs up.
        while (true) {
          auto frame = net::ReadFrame(fd, /*timeout_ms=*/2000);
          if (!frame.ok()) break;
          if (reply.empty()) continue;  // Mute server: never answer.
          if (!net::WriteAll(fd, reply.data(), reply.size()).ok()) break;
        }
        net::CloseFd(fd);
      }
    });
  }

  ~FakeServer() {
    // shutdown() is what wakes a thread blocked in accept(2); close alone
    // would leave it hanging.
    ::shutdown(listen_fd_, SHUT_RDWR);
    net::CloseFd(listen_fd_);
    thread_.join();
    ::unlink(path_.c_str());
  }

 private:
  std::string path_;
  int listen_fd_ = -1;
  std::thread thread_;
};

std::vector<uint8_t> ValidHelloBytes() {
  wire::Hello hello;
  hello.num_shards = 1;
  return wire::EncodeFrame(wire::FrameKind::kHello,
                           wire::EncodeHelloPayload(hello));
}

std::vector<uint8_t> SmallLpRequest(uint64_t job_id,
                                    const testing_util::LpCase& c) {
  return wire::EncodeSolveRequestPayload(
      job_id, c.problem,
      std::span<const Halfspace>(c.constraints.data(), c.constraints.size()));
}

TEST(SocketBackendTest, BusyServerMeansLocalFallbackNotAnError) {
  auto c = testing_util::MakeFeasibleLpCase(16, 2, 3);
  const std::string path = TestSocketPath("busy");
  FakeServer server(path, ValidHelloBytes(),
                    wire::EncodeFrame(wire::FrameKind::kBusy, {}));

  MetricsRegistry reg;
  SocketSolveBackend::Options copt;
  copt.endpoints = {path};
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  std::vector<uint8_t> response;
  EXPECT_FALSE(
      (*client)->ExecuteSerialized(1, "test", SmallLpRequest(1, c), &response));
  auto stats = (*client)->stats();
  EXPECT_GE(stats.busy, 1u);
  // Busy is saturation, not breakage: the endpoint stays healthy.
  EXPECT_TRUE((*client)->endpoint_stats(0).healthy);
}

TEST(SocketBackendTest, MuteServerTimesOutCleanly) {
  auto c = testing_util::MakeFeasibleLpCase(16, 2, 3);
  const std::string path = TestSocketPath("mute");
  FakeServer server(path, ValidHelloBytes(), /*reply=*/{});

  MetricsRegistry reg;
  SocketSolveBackend::Options copt;
  copt.endpoints = {path};
  copt.request_timeout_ms = 150;
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  std::vector<uint8_t> response;
  EXPECT_FALSE(
      (*client)->ExecuteSerialized(2, "test", SmallLpRequest(2, c), &response));
  EXPECT_GE((*client)->stats().timeouts, 1u);
}

TEST(SocketBackendTest, GarbageServerResponseHandledCleanly) {
  auto c = testing_util::MakeFeasibleLpCase(16, 2, 3);
  const std::string path = TestSocketPath("garbage");
  // 32 bytes that are not a frame (wrong magic).
  FakeServer server(path, ValidHelloBytes(),
                    std::vector<uint8_t>(32, uint8_t{0xAB}));

  MetricsRegistry reg;
  SocketSolveBackend::Options copt;
  copt.endpoints = {path};
  copt.request_timeout_ms = 1000;
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  std::vector<uint8_t> response;
  EXPECT_FALSE(
      (*client)->ExecuteSerialized(3, "test", SmallLpRequest(3, c), &response));
}

TEST(SocketBackendTest, OversizedReplyIsNeitherBusyNorTimeout) {
  auto c = testing_util::MakeFeasibleLpCase(16, 2, 3);
  const std::string path = TestSocketPath("oversized");
  // A well-formed frame whose declared payload exceeds the client's frame
  // ceiling: the client must reject it at the header — and classify it as
  // a protocol error, NOT a timeout (the old substring/status-code match
  // lumped every ResourceExhausted into `timeouts`).
  FakeServer server(path, ValidHelloBytes(),
                    wire::EncodeFrame(wire::FrameKind::kSolveResponse,
                                      std::vector<uint8_t>(2048, uint8_t{7})));

  MetricsRegistry reg;
  SocketSolveBackend::Options copt;
  copt.endpoints = {path};
  copt.max_frame_payload = 1024;
  copt.request_timeout_ms = 2000;
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  std::vector<uint8_t> response;
  EXPECT_FALSE(
      (*client)->ExecuteSerialized(4, "test", SmallLpRequest(4, c), &response));
  auto stats = (*client)->stats();
  EXPECT_EQ(stats.timeouts, 0u) << "oversized reply misclassified as timeout";
  EXPECT_EQ(stats.busy, 0u);
}

TEST(SocketBackendTest, SecondDaemonCannotHijackALiveSocket) {
  MetricsRegistry reg;
  SolveDaemon::Options dopt;
  dopt.socket_path = TestSocketPath("owner");
  dopt.num_shards = 1;
  dopt.metrics = &reg;
  auto first = SolveDaemon::Start(dopt);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // A second daemon on the same path must fail LOUDLY at startup — the old
  // listener unlinked the socket unconditionally, silently stealing every
  // future client from the running daemon.
  auto second = SolveDaemon::Start(dopt);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists)
      << second.status().ToString();

  // The first daemon still owns the socket and still serves.
  SocketSolveBackend::Options copt;
  copt.endpoints = {dopt.socket_path};
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping(0).ok());
  (*first)->Shutdown();
}

// ------------------------------------------------- daemon-side protocol

TEST(SocketBackendTest, PingPongAndRemoteShutdown) {
  MetricsRegistry reg;
  SolveDaemon::Options dopt;
  dopt.socket_path = TestSocketPath("shutdown");
  dopt.num_shards = 1;
  dopt.allow_remote_shutdown = true;
  dopt.metrics = &reg;
  auto daemon = SolveDaemon::Start(dopt);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  SocketSolveBackend::Options copt;
  copt.endpoints = {dopt.socket_path};
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  EXPECT_TRUE((*client)->Ping(0).ok());
  EXPECT_GE((*daemon)->stats().pings, 1u);

  Status st = (*client)->RequestServerShutdown(0);
  EXPECT_TRUE(st.ok()) << st.ToString();
  (*daemon)->WaitForShutdownRequest();  // Returns promptly: flag is set.
  (*daemon)->Shutdown();

  // The daemon is gone: fresh connections fail.
  (*client)->CloseIdleConnections();
  EXPECT_FALSE((*client)->Ping(0).ok());
}

TEST(SocketBackendTest, RemoteShutdownRefusedWhenNotAllowed) {
  MetricsRegistry reg;
  SolveDaemon::Options dopt;
  dopt.socket_path = TestSocketPath("no_shutdown");
  dopt.num_shards = 1;
  dopt.metrics = &reg;  // allow_remote_shutdown defaults to false.
  auto daemon = SolveDaemon::Start(dopt);
  ASSERT_TRUE(daemon.ok());

  SocketSolveBackend::Options copt;
  copt.endpoints = {dopt.socket_path};
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  Status st = (*client)->RequestServerShutdown(0);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The daemon kept running.
  EXPECT_TRUE((*client)->Ping(0).ok());
  (*daemon)->Shutdown();
}

TEST(SocketBackendTest, DaemonSurvivesMalformedClient) {
  auto c = testing_util::MakeFeasibleLpCase(16, 2, 3);
  MetricsRegistry reg;
  SolveDaemon::Options dopt;
  dopt.socket_path = TestSocketPath("malformed");
  dopt.num_shards = 1;
  dopt.metrics = &reg;
  auto daemon = SolveDaemon::Start(dopt);
  ASSERT_TRUE(daemon.ok());

  {
    // A peer speaking garbage: the daemon answers kError and cuts it off.
    auto fd = net::DialUnix(dopt.socket_path);
    ASSERT_TRUE(fd.ok());
    auto hello = net::ReadFrame(*fd, 2000);
    ASSERT_TRUE(hello.ok());
    ASSERT_EQ(hello->header.kind, wire::FrameKind::kHello);
    std::vector<uint8_t> garbage(wire::kFrameHeaderBytes, uint8_t{0xEE});
    ASSERT_TRUE(net::WriteAll(*fd, garbage.data(), garbage.size()).ok());
    auto reply = net::ReadFrame(*fd, 2000);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->header.kind, wire::FrameKind::kError);
    net::CloseFd(*fd);
  }
  EXPECT_GE((*daemon)->stats().malformed, 1u);

  // And a well-formed client is still served afterwards.
  SocketSolveBackend::Options copt;
  copt.endpoints = {dopt.socket_path};
  copt.metrics = &reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());
  std::vector<uint8_t> response;
  EXPECT_TRUE(
      (*client)->ExecuteSerialized(9, "test", SmallLpRequest(9, c), &response));
  auto decoded = wire::DecodeSolveResponsePayload(c.problem, response, 9);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  (*daemon)->Shutdown();
}

TEST(SocketBackendTest, StatsScrapeReturnsTheDaemonsLiveRegistryJson) {
  auto c = testing_util::MakeFeasibleLpCase(16, 2, 3);
  MetricsRegistry daemon_reg;
  SolveDaemon::Options dopt;
  dopt.socket_path = TestSocketPath("scrape");
  dopt.num_shards = 1;
  dopt.metrics = &daemon_reg;
  auto daemon = SolveDaemon::Start(dopt);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  MetricsRegistry client_reg;
  SocketSolveBackend::Options copt;
  copt.endpoints = {dopt.socket_path};
  copt.metrics = &client_reg;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  // Put one real solve on the books so the scraped registry is populated.
  std::vector<uint8_t> response;
  ASSERT_TRUE(
      (*client)->ExecuteSerialized(5, "test", SmallLpRequest(5, c), &response));

  auto stats = (*client)->ScrapeStats(0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The daemon's registry, not the client's: wire.daemon.* counters with a
  // populated request-bytes histogram.
  EXPECT_NE(stats->metrics_json.find("\"wire.daemon.requests\":"),
            std::string::npos)
      << stats->metrics_json;
  EXPECT_NE(stats->metrics_json.find(
                "\"wire.daemon.request_bytes\":{\"count\":1"),
            std::string::npos)
      << stats->metrics_json;
  EXPECT_TRUE(stats->trace_json.empty());  // Not asked for.
  EXPECT_EQ(daemon_reg.ToJson(), stats->metrics_json);
  EXPECT_GE((*daemon)->stats().stats_requests, 1u);

  // The one-shot convenience wrapper sees the same registry.
  auto oneshot = runtime::ScrapeDaemonStats(dopt.socket_path);
  ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
  EXPECT_NE(oneshot->metrics_json.find("\"wire.daemon.solved\":"),
            std::string::npos);
  (*daemon)->Shutdown();
}

TEST(SocketBackendTest, TraceContextStitchesAcrossTheSocketBoundary) {
  auto c = testing_util::MakeFeasibleLpCase(600, 2, 17);
  Rng rng(0x57D7C4ULL);
  auto parts = workload::Partition(c.constraints, 4, true, &rng);

  MetricsRegistry daemon_reg;
  runtime::trace::TraceRecorder daemon_recorder(true);
  SolveDaemon::Options dopt;
  dopt.socket_path = TestSocketPath("stitch");
  dopt.num_shards = 1;
  dopt.metrics = &daemon_reg;
  dopt.trace = &daemon_recorder;
  auto daemon = SolveDaemon::Start(dopt);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  MetricsRegistry client_reg;
  runtime::trace::TraceRecorder client_recorder(true);
  SocketSolveBackend::Options copt;
  copt.endpoints = {dopt.socket_path};
  copt.metrics = &client_reg;
  copt.trace = &client_recorder;
  auto client = SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok());

  coord::CoordinatorOptions opt;
  opt.net.scale = 0.1;
  opt.seed = 0x57D7C4ULL;
  opt.runtime.trace = &client_recorder;
  opt.runtime.solver_backend = client->get();
  opt.runtime.oversized_basis_threshold = 1;  // Route every basis solve.
  auto result = coord::SolveCoordinator(c.problem, parts, opt, nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT((*client)->stats().remote_success, 0u);

  // Some client basis-solve span's trace id crossed inside the request frames
  // and must come back verbatim in the daemon's exported spans.
  uint64_t basis_trace_id = 0;
  for (const auto& event : client_recorder.Snapshot()) {
    if (std::string(event.name) == "engine.basis_solve" &&
        event.trace_id != 0) {
      basis_trace_id = event.trace_id;
      break;
    }
  }
  ASSERT_NE(basis_trace_id, 0u);

  auto stats = (*client)->ScrapeStats(0, /*include_trace=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_FALSE(stats->trace_json.empty());
  const std::string needle = "\"trace_id\":" + std::to_string(basis_trace_id);
  EXPECT_NE(stats->trace_json.find(needle), std::string::npos);
  for (const char* span : {"daemon.request", "daemon.decode", "daemon.solve",
                           "daemon.encode"}) {
    EXPECT_NE(stats->trace_json.find(span), std::string::npos) << span;
  }
  // And the daemon recorded queue-wait/execute histograms while serving.
  EXPECT_NE(stats->metrics_json.find("service.shard.execute_seconds"),
            std::string::npos);
  (*daemon)->Shutdown();
}

}  // namespace
}  // namespace lplow
