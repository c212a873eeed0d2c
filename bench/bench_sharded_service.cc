// Shard-scaling of the ShardedSolverService (src/runtime): the same job
// mix, wall-clock vs shard count, for both submission styles (per-job
// Submit vs coalesced BatchSubmit), plus the engine's SolveBackend seam
// under a shard sweep — in-process and across a loopback Unix socket
// (lp_served daemon + SocketSolveBackend). The `jobs` / `batches` /
// `routed_solves` / `remote_solves` counters are deterministic under the
// fixed seeds; `rounds`/`KB` of the backend sweeps must not vary with the
// shard count or the transport (the determinism contract of
// docs/runtime.md §"Sharded solver backend" and §"Wire protocol").

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "src/models/coordinator/coordinator_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/lp_client.h"
#include "src/runtime/lp_served.h"
#include "src/runtime/metrics.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

namespace lplow {
namespace {

// One fixed coordinator-LP request mix shared by the throughput benches.
struct JobMix {
  LinearProgram problem;
  std::vector<std::vector<Halfspace>> parts;

  static const JobMix& Get() {
    static const JobMix* mix = [] {
      Rng rng(0x5AADED);
      auto inst = workload::RandomFeasibleLp(20000, 2, &rng);
      auto* m = new JobMix{LinearProgram(inst.objective), {}};
      m->parts = workload::Partition(inst.constraints, 8, true, &rng);
      return m;
    }();
    return *mix;
  }
};

bool RunOneJob(size_t j) {
  const JobMix& mix = JobMix::Get();
  coord::CoordinatorOptions opt;
  opt.net.scale = 0.1;
  opt.seed = 0x5AADED + j;
  return coord::SolveCoordinator(mix.problem, mix.parts, opt, nullptr).ok();
}

void BM_ShardedSubmitThroughput(benchmark::State& state) {
  const size_t jobs = static_cast<size_t>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  JobMix::Get();  // Build the instance outside the timed region.

  uint64_t completed = 0;
  for (auto _ : state) {
    runtime::ShardedSolverService::Options sopt;
    sopt.num_shards = shards;
    sopt.threads_per_shard = 2;
    runtime::ShardedSolverService service(sopt);
    for (size_t j = 0; j < jobs; ++j) {
      service.Submit(static_cast<uint64_t>(j), "bench_lp",
                     [j] { return RunOneJob(j); });
    }
    service.Drain();
    completed = service.total_stats().completed;
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs) * state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["jobs"] = static_cast<double>(completed);
}

BENCHMARK(BM_ShardedSubmitThroughput)
    ->ArgNames({"jobs", "shards"})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

void BM_ShardedBatchSubmitThroughput(benchmark::State& state) {
  const size_t jobs = static_cast<size_t>(state.range(0));
  const size_t shards = static_cast<size_t>(state.range(1));
  JobMix::Get();

  uint64_t batches = 0;
  for (auto _ : state) {
    runtime::ShardedSolverService::Options sopt;
    sopt.num_shards = shards;
    sopt.threads_per_shard = 2;
    runtime::ShardedSolverService service(sopt);
    std::vector<std::pair<uint64_t, std::function<bool()>>> batch;
    batch.reserve(jobs);
    for (size_t j = 0; j < jobs; ++j) {
      batch.emplace_back(static_cast<uint64_t>(j),
                         [j] { return RunOneJob(j); });
    }
    auto futures = service.BatchSubmit("bench_lp_batch", std::move(batch));
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
    service.Drain();
    batches = service.total_stats().batches;
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs) * state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["batches"] = static_cast<double>(batches);
}

BENCHMARK(BM_ShardedBatchSubmitThroughput)
    ->ArgNames({"jobs", "shards"})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The engine seam under a shard sweep: one big coordinator solve routing
// every basis solve through the sharded backend. rounds/KB must be
// identical at every shard count; routed_solves counts the dispatches.
void BM_SolveBackendShardSweep(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  Rng rng(0xBACE);
  auto inst = workload::RandomFeasibleLp(300000, 2, &rng);
  LinearProgram problem(inst.objective);
  auto parts = workload::Partition(inst.constraints, 64, true, &rng);

  coord::CoordinatorStats stats;
  runtime::MetricsRegistry registry;
  uint64_t routed = 0;
  for (auto _ : state) {
    runtime::ShardedSolverService::Options sopt;
    sopt.num_shards = shards;
    sopt.threads_per_shard = 2;
    sopt.metrics = &registry;
    runtime::ShardedSolverService service(sopt);
    coord::CoordinatorOptions opt;
    opt.r = 3;
    opt.net.scale = 0.1;
    opt.seed = 0xBACE;
    opt.runtime.num_threads = 2;
    opt.runtime.solver_backend = &service;
    opt.runtime.oversized_basis_threshold = 1;
    auto result = coord::SolveCoordinator(problem, parts, opt, &stats);
    if (!result.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(result);
    routed = service.total_stats().solves;
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["KB"] = static_cast<double>(stats.total_bytes) / 1024.0;
  state.counters["routed_solves"] = static_cast<double>(routed);
  // Shard latency distribution (docs/runtime.md §"Tracing and histograms").
  // The _p99 suffix marks these report-only for scripts/bench_compare.py —
  // wall-time-derived, machine-dependent, never gated.
  state.counters["queue_wait_p99"] =
      registry.GetHistogram("service.shard.queue_wait_seconds")->Quantile(0.99);
  state.counters["execute_p99"] =
      registry.GetHistogram("service.shard.execute_seconds")->Quantile(0.99);
}

BENCHMARK(BM_SolveBackendShardSweep)
    ->ArgNames({"shards"})
    ->Args({1})
    ->Args({2})
    ->Args({4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// The same sweep across the process boundary: an in-process lp_served
// daemon on a loopback Unix socket, the engine dispatching through
// SocketSolveBackend (serialize job -> frame -> daemon shard -> frame ->
// deserialize result). rounds/KB must equal the in-process lane above at
// every shard count — the transport moves the work, never the transcript —
// so the lane prices exactly the wire + socket overhead.
void BM_LoopbackSolveBackendShardSweep(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  Rng rng(0xBACE);
  auto inst = workload::RandomFeasibleLp(300000, 2, &rng);
  LinearProgram problem(inst.objective);
  auto parts = workload::Partition(inst.constraints, 64, true, &rng);

  const std::string socket_path = "/tmp/lplow_bench_" +
                                  std::to_string(::getpid()) + "_" +
                                  std::to_string(shards) + ".sock";
  coord::CoordinatorStats stats;
  runtime::MetricsRegistry daemon_registry;
  runtime::MetricsRegistry client_registry;
  uint64_t remote = 0, fallbacks = 0;
  for (auto _ : state) {
    runtime::SolveDaemon::Options dopt;
    dopt.socket_path = socket_path;
    dopt.num_shards = shards;
    dopt.threads_per_shard = 2;
    dopt.metrics = &daemon_registry;
    auto daemon = runtime::SolveDaemon::Start(dopt);
    if (!daemon.ok()) {
      state.SkipWithError("daemon start failed");
      break;
    }
    runtime::SocketSolveBackend::Options copt;
    copt.endpoints = {socket_path};
    copt.metrics = &client_registry;
    auto client = runtime::SocketSolveBackend::Create(copt);
    if (!client.ok()) {
      state.SkipWithError("client create failed");
      break;
    }
    coord::CoordinatorOptions opt;
    opt.r = 3;
    opt.net.scale = 0.1;
    opt.seed = 0xBACE;
    opt.runtime.num_threads = 2;
    opt.runtime.solver_backend = client->get();
    opt.runtime.oversized_basis_threshold = 1;
    auto result = coord::SolveCoordinator(problem, parts, opt, &stats);
    if (!result.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(result);
    remote = (*client)->stats().remote_success;
    fallbacks = (*client)->stats().local_fallbacks;
    (*daemon)->Shutdown();
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["KB"] = static_cast<double>(stats.total_bytes) / 1024.0;
  state.counters["remote_solves"] = static_cast<double>(remote);
  state.counters["local_fallbacks"] = static_cast<double>(fallbacks);
  // Request bytes are deterministic under the fixed seeds (count and sum
  // are strict-comparable); the RTT percentile is wall-time, so its _p99
  // suffix keeps it report-only for scripts/bench_compare.py.
  auto* req_bytes = daemon_registry.GetHistogram("wire.daemon.request_bytes");
  state.counters["request_KB"] = req_bytes->sum() / 1024.0;
  state.counters["requests_histogrammed"] =
      static_cast<double>(req_bytes->count());
  state.counters["rtt_p99"] =
      client_registry.GetHistogram("wire.client.rtt_seconds")->Quantile(0.99);
}

BENCHMARK(BM_LoopbackSolveBackendShardSweep)
    ->ArgNames({"shards"})
    ->Args({1})
    ->Args({2})
    ->Args({4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

// Transport sweep on top of the loopback lane: Unix vs TCP loopback.
// rounds/KB stay identical to both sweeps above (the transcript never
// moves with the transport); what varies is wall clock, so this lane
// prices TCP framing against Unix sockets side by side. The tx/rx
// counters are deterministic under the fixed seeds.
void BM_LoopbackTransportSweep(benchmark::State& state) {
  const bool tcp = state.range(0) != 0;
  Rng rng(0xBACE);
  auto inst = workload::RandomFeasibleLp(300000, 2, &rng);
  LinearProgram problem(inst.objective);
  auto parts = workload::Partition(inst.constraints, 64, true, &rng);

  const std::string unix_path =
      "/tmp/lplow_bench_tp_" + std::to_string(::getpid()) + ".sock";
  coord::CoordinatorStats stats;
  runtime::MetricsRegistry daemon_registry;
  runtime::MetricsRegistry client_registry;
  uint64_t remote = 0;
  uint64_t tx = 0, rx = 0;
  for (auto _ : state) {
    runtime::SolveDaemon::Options dopt;
    dopt.socket_path = tcp ? "tcp:127.0.0.1:0" : unix_path;
    dopt.num_shards = 2;
    dopt.threads_per_shard = 2;
    dopt.metrics = &daemon_registry;
    auto daemon = runtime::SolveDaemon::Start(dopt);
    if (!daemon.ok()) {
      state.SkipWithError("daemon start failed");
      break;
    }
    runtime::SocketSolveBackend::Options copt;
    copt.endpoints = {(*daemon)->bound_endpoint()};
    copt.metrics = &client_registry;
    auto client = runtime::SocketSolveBackend::Create(copt);
    if (!client.ok()) {
      state.SkipWithError("client create failed");
      break;
    }
    coord::CoordinatorOptions opt;
    opt.r = 3;
    opt.net.scale = 0.1;
    opt.seed = 0xBACE;
    opt.runtime.num_threads = 2;
    opt.runtime.solver_backend = client->get();
    opt.runtime.oversized_basis_threshold = 1;
    auto result = coord::SolveCoordinator(problem, parts, opt, &stats);
    if (!result.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(result);
    remote = (*client)->stats().remote_success;
    tx = (*client)->endpoint_stats(0).tx_bytes;
    rx = (*client)->endpoint_stats(0).rx_bytes;
    (*daemon)->Shutdown();
  }
  state.counters["tcp"] = tcp ? 1.0 : 0.0;
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["KB"] = static_cast<double>(stats.total_bytes) / 1024.0;
  state.counters["remote_solves"] = static_cast<double>(remote);
  state.counters["wire_tx_KB"] = static_cast<double>(tx) / 1024.0;
  state.counters["wire_rx_KB"] = static_cast<double>(rx) / 1024.0;
  state.counters["rtt_p99"] =
      client_registry.GetHistogram("wire.client.rtt_seconds")->Quantile(0.99);
}

BENCHMARK(BM_LoopbackTransportSweep)
    ->ArgNames({"tcp"})
    ->Args({0})
    ->Args({1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace
}  // namespace lplow
