// ShardedSolverService (label `quick`): stable job->shard routing,
// shard-count determinism of the engine transcripts (the acceptance
// contract: counters bit-identical across {1,2,4} shards x {1,2,8}
// threads), batch-vs-sequential submit equivalence, and failure-injection
// accounting (a throwing job is counted against its shard and never wedges
// the queue).

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/models/coordinator/coordinator_solver.h"
#include "src/models/deterministic/deterministic_solver.h"
#include "src/models/mpc/mpc_solver.h"
#include "src/models/streaming/streaming_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/runtime/solve_backend.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/testing_util.h"

namespace lplow {
namespace {

using runtime::MetricsRegistry;
using runtime::ShardedSolverService;

// ------------------------------------------------------------- routing

TEST(ShardedServiceTest, RoutingIsAStableFunctionOfTheJobId) {
  ShardedSolverService::Options opt;
  opt.num_shards = 4;
  MetricsRegistry reg;
  opt.metrics = &reg;
  ShardedSolverService a(opt);
  ShardedSolverService b(opt);

  std::set<size_t> shards_hit;
  for (uint64_t id = 0; id < 256; ++id) {
    size_t shard = a.ShardFor(id);
    ASSERT_LT(shard, a.num_shards());
    // Same id, same shard — across calls and across service instances.
    EXPECT_EQ(shard, a.ShardFor(id));
    EXPECT_EQ(shard, b.ShardFor(id));
    shards_hit.insert(shard);
  }
  // The stable hash must actually spread ids over the shards.
  EXPECT_EQ(shards_hit.size(), a.num_shards());
}

// ------------------------------------------- shard-count determinism

using testing_util::BasisHash;  // FNV-1a over the problem's wire format,
                                // the same hash engine_equivalence_test pins.

/// The transcript fingerprint the acceptance contract pins: basis bytes
/// plus the deterministic counters (rounds, bytes, iters, resample bytes).
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

/// Runs all three models with `runtime` injected; `threshold 1` forces
/// every engine basis solve through the configured backend.
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
    // The sampling-free model: no seed to hold fixed — the sweep pins that
    // the backend seam is equally invisible to a transport that consumes
    // zero random bits.
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

TEST(ShardedServiceTest, TranscriptsBitIdenticalAcrossShardAndThreadCounts) {
  auto c = testing_util::MakeFeasibleLpCase(3000, 2, 71);
  Rng rng(0xD15C1ULL);
  auto parts = workload::Partition(c.constraints, 8, true, &rng);

  // Reference: the serial path, no backend (the seed transcript).
  ModelTranscripts want =
      RunAllModels(c.problem, parts, c.constraints, runtime::RuntimeOptions{});
  ASSERT_NE(want.coordinator, Transcript{});

  for (size_t shards : {1u, 2u, 4u}) {
    MetricsRegistry reg;
    ShardedSolverService::Options sopt;
    sopt.num_shards = shards;
    sopt.threads_per_shard = 2;
    sopt.metrics = &reg;
    ShardedSolverService service(sopt);

    for (size_t threads : {1u, 2u, 8u}) {
      runtime::RuntimeOptions ropt;
      ropt.num_threads = threads;
      ropt.solver_backend = &service;
      ropt.oversized_basis_threshold = 1;  // Route every basis solve.
      ModelTranscripts got =
          RunAllModels(c.problem, parts, c.constraints, ropt);
      EXPECT_EQ(got, want) << "transcript drifted at shards=" << shards
                           << " threads=" << threads;
    }

    // The backend really ran the solves: every engine basis solve of the 12
    // runs (4 models x 3 thread counts) dispatched through a shard.
    auto totals = service.total_stats();
    EXPECT_GT(totals.solves, 0u);
    EXPECT_EQ(totals.failed, 0u);
    uint64_t per_shard_sum = 0;
    for (size_t s = 0; s < service.num_shards(); ++s) {
      per_shard_sum += service.shard_stats(s).solves;
    }
    EXPECT_EQ(per_shard_sum, totals.solves);
    if (shards == 4) {
      // Distinct per-run job ids must spread the dispatches (deterministic
      // under the fixed seeds above).
      size_t shards_used = 0;
      for (size_t s = 0; s < service.num_shards(); ++s) {
        shards_used += service.shard_stats(s).solves > 0 ? 1 : 0;
      }
      EXPECT_GE(shards_used, 2u);
    }
  }
}

// ------------------------------------------- batch-vs-sequential submit

TEST(ShardedServiceTest, BatchSubmitMatchesSequentialSubmit) {
  const size_t kJobs = 48;
  auto job_value = [](uint64_t id) {
    // Deterministic busywork standing in for a solve.
    uint64_t acc = id;
    for (int i = 0; i < 1000; ++i) acc = acc * 6364136223846793005ULL + 1;
    return acc;
  };

  std::vector<uint64_t> sequential(kJobs), batched(kJobs);
  MetricsRegistry seq_reg, batch_reg;

  {
    ShardedSolverService::Options opt;
    opt.num_shards = 4;
    opt.threads_per_shard = 2;
    opt.metrics = &seq_reg;
    ShardedSolverService service(opt);
    std::vector<std::future<uint64_t>> futures;
    for (uint64_t id = 0; id < kJobs; ++id) {
      futures.push_back(
          service.Submit(id, "seq", [&job_value, id] { return job_value(id); }));
    }
    for (size_t i = 0; i < kJobs; ++i) sequential[i] = futures[i].get();
    service.Drain();
    EXPECT_EQ(service.total_stats().submitted, kJobs);
    EXPECT_EQ(service.total_stats().completed, kJobs);
    EXPECT_EQ(service.total_stats().batches, 0u);
  }

  size_t batch_dispatch_units = 0;
  {
    ShardedSolverService::Options opt;
    opt.num_shards = 4;
    opt.threads_per_shard = 2;
    opt.metrics = &batch_reg;
    ShardedSolverService service(opt);
    std::vector<std::pair<uint64_t, std::function<uint64_t()>>> jobs;
    for (uint64_t id = 0; id < kJobs; ++id) {
      jobs.emplace_back(id, [&job_value, id] { return job_value(id); });
    }
    auto futures = service.BatchSubmit("batch", std::move(jobs));
    ASSERT_EQ(futures.size(), kJobs);
    for (size_t i = 0; i < kJobs; ++i) batched[i] = futures[i].get();
    service.Drain();

    auto totals = service.total_stats();
    EXPECT_EQ(totals.submitted, kJobs);
    EXPECT_EQ(totals.completed, kJobs);
    EXPECT_EQ(totals.failed, 0u);
    // Coalescing: at most one dispatch unit per shard for the whole batch,
    // and the inner services saw batches, not individual jobs.
    EXPECT_LE(totals.batches, service.num_shards());
    EXPECT_GT(totals.batches, 0u);
    for (size_t s = 0; s < service.num_shards(); ++s) {
      batch_dispatch_units += service.shard(s).stats().submitted;
    }
    EXPECT_EQ(batch_dispatch_units, totals.batches);
    EXPECT_EQ(batch_reg.GetCounter("service.shard.batch_jobs")->value(),
              kJobs);
  }

  // Same jobs, same results, whichever way they were submitted.
  EXPECT_EQ(sequential, batched);
}

// ------------------------------------------------- failure injection

TEST(ShardedServiceTest, ThrowingJobsAreCountedAndDoNotWedgeTheQueue) {
  MetricsRegistry reg;
  ShardedSolverService::Options opt;
  opt.num_shards = 2;
  opt.threads_per_shard = 1;
  opt.metrics = &reg;
  ShardedSolverService service(opt);

  const size_t kJobs = 16;
  std::vector<std::pair<uint64_t, std::function<int()>>> jobs;
  for (uint64_t id = 0; id < kJobs; ++id) {
    jobs.emplace_back(id, [id]() -> int {
      if (id % 4 == 0) throw std::runtime_error("injected");
      return static_cast<int>(id);
    });
  }
  auto futures = service.BatchSubmit("faulty", std::move(jobs));
  // Drain before consuming: the stored exceptions are then owned solely by
  // the futures, so the rethrow/teardown below all happens on this thread.
  service.Drain();

  size_t threw = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    try {
      EXPECT_EQ(futures[i].get(), static_cast<int>(i));
    } catch (const std::runtime_error& e) {
      ++threw;
      EXPECT_STREQ(e.what(), "injected");
      EXPECT_EQ(i % 4, 0u);
    }
  }
  EXPECT_EQ(threw, kJobs / 4);

  auto totals = service.total_stats();
  EXPECT_EQ(totals.submitted, kJobs);
  EXPECT_EQ(totals.completed, kJobs);  // Failed jobs still complete.
  EXPECT_EQ(totals.failed, kJobs / 4);

  uint64_t failed_metric = 0;
  for (size_t s = 0; s < service.num_shards(); ++s) {
    failed_metric += reg.GetCounter("service.shard." + std::to_string(s) +
                                    ".failed")
                         ->value();
  }
  EXPECT_EQ(failed_metric, kJobs / 4);

  // The queue survives: the same shards keep serving work afterwards.
  auto after = service.Submit(uint64_t{3}, "after", [] { return 7; });
  EXPECT_EQ(after.get(), 7);
  service.Drain();
  EXPECT_EQ(service.total_stats().completed, kJobs + 1);

  // The SolveBackend path accounts failures separately (an Execute
  // dispatch is not a job: no future, no completed/failed entry).
  EXPECT_THROW(
      service.Execute(5, "test", [] { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_EQ(service.total_stats().failed, kJobs / 4);
  EXPECT_EQ(service.total_stats().solves, 1u);
  EXPECT_EQ(service.total_stats().solve_failures, 1u);
  EXPECT_EQ(service.total_stats().completed, kJobs + 1);
}

}  // namespace
}  // namespace lplow
