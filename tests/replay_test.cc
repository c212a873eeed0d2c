// Traffic-replay determinism (src/workload/replay.h): one recorded mix,
// replayed on every service topology — shard counts {1,2,4} x threads
// {1,2,8}, per-job Submit vs coalesced BatchSubmit, in-process serve vs a
// loopback socket daemon — must produce bit-identical per-job response
// fingerprints and the same folded transcript hash. This is the quick
// inner-loop pin of the soak harness; the heavy mix rides in
// bench/bench_replay_soak.cc.

#include <unistd.h>

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/runtime/lp_client.h"
#include "src/runtime/lp_served.h"
#include "src/runtime/metrics.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/workload/replay.h"

namespace lplow {
namespace {

workload::RecordOptions QuickMixOptions() {
  workload::RecordOptions opt;
  opt.seed = 0x5EEDC0DE;
  opt.num_jobs = 240;
  opt.num_tenants = 16;
  opt.base_constraints = 24;
  opt.size_classes = 3;
  return opt;
}

// One shared recording for every replay lane below (recording is pure, so
// sharing it only saves time, never couples the tests).
const workload::RecordedWorkload& QuickMix() {
  static const workload::RecordedWorkload* mix =
      new workload::RecordedWorkload(workload::RecordWorkload(QuickMixOptions()));
  return *mix;
}

workload::ReplayResult ReplayOn(size_t shards, size_t threads, bool batch,
                                runtime::SolveBackend* backend = nullptr) {
  runtime::MetricsRegistry registry;
  runtime::ShardedSolverService::Options sopt;
  sopt.num_shards = shards;
  sopt.threads_per_shard = threads;
  sopt.metrics = &registry;
  runtime::ShardedSolverService service(sopt);
  workload::ReplayOptions ropt;
  ropt.backend = backend;
  ropt.metrics = &registry;
  ropt.batch = batch;
  return workload::Replay(QuickMix(), &service, ropt);
}

TEST(ReplayTest, RecordingIsDeterministic) {
  auto a = workload::RecordWorkload(QuickMixOptions());
  auto b = workload::RecordWorkload(QuickMixOptions());
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(a.request_bytes, b.request_bytes);
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].job_id, b.jobs[i].job_id);
    EXPECT_EQ(a.jobs[i].kind, b.jobs[i].kind);
    EXPECT_EQ(a.jobs[i].constraints, b.jobs[i].constraints);
    ASSERT_EQ(a.jobs[i].request, b.jobs[i].request) << "job " << i;
  }

  auto opt = QuickMixOptions();
  opt.seed ^= 1;
  auto c = workload::RecordWorkload(opt);
  EXPECT_NE(a.request_bytes, c.request_bytes);
}

TEST(ReplayTest, MixIsSkewedAndCoversEveryKind) {
  const auto& mix = QuickMix();
  uint64_t total = 0;
  for (uint64_t k : mix.kind_jobs) {
    EXPECT_GT(k, 0u);
    total += k;
  }
  EXPECT_EQ(total, mix.jobs.size());
  // Zipf head vs tail: linear_program (rank 0) must dominate the annulus
  // (rank 5) by a wide margin.
  EXPECT_GT(mix.kind_jobs[0], 4 * mix.kind_jobs[5]);

  // The size distribution actually spans its classes, small-heavy.
  size_t small = 0, large = 0;
  for (const auto& job : mix.jobs) {
    if (job.constraints == 24) small++;
    if (job.constraints == 96) large++;
  }
  EXPECT_GT(small, large);
  EXPECT_GT(large, 0u);

  // Tenant skew: fewer distinct routing keys than jobs, more than one.
  std::vector<uint64_t> ids;
  for (const auto& job : mix.jobs) ids.push_back(job.job_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_GT(ids.size(), 1u);
  EXPECT_LT(ids.size(), mix.jobs.size());
}

TEST(ReplayTest, TranscriptIsBitIdenticalAcrossTopologies) {
  const auto reference = ReplayOn(1, 1, /*batch=*/false);
  ASSERT_EQ(reference.job_hashes.size(), QuickMix().jobs.size());
  EXPECT_EQ(reference.jobs_failed, 0u);
  EXPECT_EQ(reference.jobs_ok, QuickMix().jobs.size());
  EXPECT_EQ(reference.remote_jobs, 0u);

  for (size_t shards : {1, 2, 4}) {
    for (size_t threads : {1, 2, 8}) {
      auto run = ReplayOn(shards, threads, /*batch=*/false);
      EXPECT_EQ(run.transcript_hash, reference.transcript_hash)
          << shards << " shards, " << threads << " threads";
      ASSERT_EQ(run.job_hashes, reference.job_hashes)
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(run.response_bytes, reference.response_bytes);
      EXPECT_EQ(run.jobs_failed, 0u);
    }
  }
}

TEST(ReplayTest, BatchSubmitMatchesPerJobSubmit) {
  const auto reference = ReplayOn(1, 1, /*batch=*/false);
  for (size_t shards : {1, 4}) {
    auto run = ReplayOn(shards, 2, /*batch=*/true);
    EXPECT_EQ(run.transcript_hash, reference.transcript_hash)
        << shards << " shards (batched)";
    ASSERT_EQ(run.job_hashes, reference.job_hashes);
  }
}

TEST(ReplayTest, LoopbackSocketLaneMatchesInProcess) {
  // Serve traffic routes by tenant, so job ids repeat across jobs: the
  // socket lane below runs concurrent callers that share an id, and each
  // must still get its own response.
  std::set<uint64_t> job_ids;
  for (const auto& job : QuickMix().jobs) job_ids.insert(job.job_id);
  ASSERT_LT(job_ids.size(), QuickMix().jobs.size());

  const auto reference = ReplayOn(1, 1, /*batch=*/false);

  const std::string socket_path =
      "/tmp/lplow_replay_test_" + std::to_string(::getpid()) + ".sock";
  runtime::SolveDaemon::Options dopt;
  dopt.socket_path = socket_path;
  dopt.num_shards = 2;
  dopt.threads_per_shard = 2;
  auto daemon = runtime::SolveDaemon::Start(dopt);
  ASSERT_TRUE(daemon.ok()) << daemon.status().message();
  runtime::SocketSolveBackend::Options copt;
  copt.endpoints = {socket_path};
  auto client = runtime::SocketSolveBackend::Create(copt);
  ASSERT_TRUE(client.ok()) << client.status().message();

  auto run = ReplayOn(2, 2, /*batch=*/false, client->get());
  EXPECT_EQ(run.transcript_hash, reference.transcript_hash);
  ASSERT_EQ(run.job_hashes, reference.job_hashes);
  // Every job crossed the wire; the local-serve failover stayed idle.
  EXPECT_EQ(run.remote_jobs, QuickMix().jobs.size());
  EXPECT_EQ(run.local_serves, 0u);
  (*daemon)->Shutdown();
}

TEST(ReplayTest, ReplayExportsMetrics) {
  runtime::MetricsRegistry registry;
  runtime::ShardedSolverService::Options sopt;
  sopt.num_shards = 2;
  sopt.threads_per_shard = 2;
  sopt.metrics = &registry;
  runtime::ShardedSolverService service(sopt);
  workload::ReplayOptions ropt;
  ropt.metrics = &registry;
  auto result = workload::Replay(QuickMix(), &service, ropt);

  const uint64_t jobs = QuickMix().jobs.size();
  EXPECT_EQ(registry.GetCounter("replay.jobs")->value(), jobs);
  EXPECT_EQ(registry.GetCounter("replay.jobs_failed")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("replay.local_serves")->value(), jobs);
  EXPECT_EQ(registry.GetHistogram("replay.job_seconds")->count(), jobs);
  auto* bytes_hist = registry.GetHistogram("replay.response_bytes");
  EXPECT_EQ(bytes_hist->count(), jobs);
  EXPECT_EQ(bytes_hist->sum(), static_cast<double>(result.response_bytes));
  // Per-kind counters partition the job count.
  uint64_t per_kind = 0;
  for (const char* name :
       {"linear_program", "linear_svm", "min_enclosing_ball",
        "chebyshev_center", "linf_regression", "enclosing_annulus"}) {
    per_kind +=
        registry.GetCounter(std::string("replay.kind.") + name)->value();
  }
  EXPECT_EQ(per_kind, jobs);
  // Latency percentiles come straight off the histogram (wall-time valued,
  // so only sanity-checked here, never pinned).
  EXPECT_GT(registry.GetHistogram("replay.job_seconds")->Quantile(0.99), 0.0);
}

}  // namespace
}  // namespace lplow
