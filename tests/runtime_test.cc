// Tests of the src/runtime subsystem: ThreadPool/TaskGroup semantics
// (coverage, shutdown, exception safety, nesting), SiteExecutor barriers,
// MetricsRegistry + JSON export, SolverService job flow, and the
// determinism contract of the concurrent model solvers — bases, byte
// counts, and round counts identical for num_threads in {1, 2, 8}.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/models/coordinator/coordinator_solver.h"
#include "src/models/mpc/mpc_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/metrics.h"
#include "src/runtime/site_executor.h"
#include "src/runtime/solver_service.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/testing_util.h"

namespace lplow {
namespace {

using runtime::MetricsRegistry;
using runtime::ParallelFor;
using runtime::SiteExecutor;
using runtime::SolverService;
using runtime::TaskGroup;
using runtime::ThreadPool;
using testing_util::ExpectMatchesDirect;
using testing_util::MakeFeasibleLpCase;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 3, 9, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 6u);
  for (size_t j = 0; j < order.size(); ++j) EXPECT_EQ(order[j], 3 + j);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(5, 5, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(0, 100,
                                [&](size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SerialPathRunsEveryIterationDespiteException) {
  // Error semantics must not depend on the thread count: like the pooled
  // path, the inline path completes the whole range before rethrowing.
  std::vector<int> hits(10, 0);
  EXPECT_THROW(ParallelFor(nullptr, 0, hits.size(),
                           [&](size_t i) {
                             ++hits[i];
                             if (i == 3) throw std::runtime_error("mid");
                           }),
               std::runtime_error);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ++ran; });
    }
    // No explicit wait: ~ThreadPool must finish every queued task.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 4, [&](size_t) {
    pool.ParallelFor(0, 8, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(TaskGroupTest, InlineWhenPoolIsNull) {
  TaskGroup group(nullptr);
  int x = 0;
  group.Run([&] { x = 1; });
  group.Wait();
  EXPECT_EQ(x, 1);
}

TEST(TaskGroupTest, WaitRethrowsInlineError) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::logic_error("inline"); });
  EXPECT_THROW(group.Wait(), std::logic_error);
}

// ----------------------------------------------------------- SiteExecutor

TEST(SiteExecutorTest, RunsEverySiteAndCountsRounds) {
  ThreadPool pool(3);
  SiteExecutor exec(&pool, 17);
  std::vector<std::atomic<int>> hits(17);
  exec.RunRound([&](size_t i) { ++hits[i]; });
  exec.RunRound([&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 2);
  EXPECT_EQ(exec.rounds_run(), 2u);
  EXPECT_TRUE(exec.parallel());
  EXPECT_EQ(exec.threads(), 3u);
}

TEST(SiteExecutorTest, SerialWithoutPool) {
  SiteExecutor exec(nullptr, 5);
  EXPECT_FALSE(exec.parallel());
  EXPECT_EQ(exec.threads(), 1u);
  std::vector<size_t> order;
  exec.RunRound([&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, CounterGaugeTimerRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Increment();
  reg.GetCounter("c")->Increment(41);
  EXPECT_EQ(reg.GetCounter("c")->value(), 42u);
  reg.GetGauge("g")->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g")->value(), 2.5);
  reg.GetTimer("t")->Record(0.5);
  reg.GetTimer("t")->Record(1.5);
  EXPECT_EQ(reg.GetTimer("t")->count(), 2u);
  EXPECT_DOUBLE_EQ(reg.GetTimer("t")->total_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(reg.GetTimer("t")->mean_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(reg.GetTimer("t")->max_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(reg.GetTimer("empty")->mean_seconds(), 0.0);
}

TEST(MetricsTest, ScopedTimerCancelDismissesTheRecording) {
  MetricsRegistry reg;
  auto* t = reg.GetTimer("t");
  { runtime::ScopedTimer timer(t); }
  EXPECT_EQ(t->count(), 1u);
  {
    runtime::ScopedTimer timer(t);
    timer.Cancel();  // The error path: the aborted interval never lands.
  }
  EXPECT_EQ(t->count(), 1u);
}

TEST(MetricsTest, HistogramRecordsIntoLog2Buckets) {
  using runtime::Histogram;
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // Empty.

  // 3.0 lands in (2, 4] = exponent 2; 1024.0 exactly on a bound lands in
  // (512, 1024] = exponent 10.
  h.Record(3.0);
  h.Record(3.5);
  h.Record(1024.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0 + 3.5 + 1024.0);
  auto nonzero = h.NonzeroBuckets();
  ASSERT_EQ(nonzero.size(), 2u);
  EXPECT_EQ(nonzero[0], (std::pair<int, uint64_t>{2, 2}));
  EXPECT_EQ(nonzero[1], (std::pair<int, uint64_t>{10, 1}));

  // Deterministic quantiles: the upper bound of the bucket holding the
  // rank, never an interpolation.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 1024.0);

  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.NonzeroBuckets().empty());
}

TEST(MetricsTest, HistogramExtremesGoToEdgeBuckets) {
  using runtime::Histogram;
  Histogram h;
  h.Record(0.0);    // Below every bound: the first bucket.
  h.Record(1e-12);  // Sub-nanosecond timing: also under 2^-30.
  h.Record(1e18);   // Beyond 2^34: the overflow bucket.
  EXPECT_EQ(h.count(), 3u);
  auto nonzero = h.NonzeroBuckets();
  ASSERT_EQ(nonzero.size(), 2u);
  EXPECT_EQ(nonzero.front(),
            (std::pair<int, uint64_t>{Histogram::kMinExponent, 2}));
  EXPECT_EQ(nonzero.back(),
            (std::pair<int, uint64_t>{Histogram::kMaxExponent + 1, 1}));
  // The overflow bucket's quantile reports the table's top bound.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), std::pow(2.0, Histogram::kMaxExponent));
}

TEST(MetricsTest, HistogramNonFiniteSamplesGoToOverflowAndStayOutOfSum) {
  using runtime::Histogram;
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h");
  h->Record(std::numeric_limits<double>::quiet_NaN());
  h->Record(std::numeric_limits<double>::infinity());
  h->Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h->count(), 3u);
  EXPECT_TRUE(std::isfinite(h->sum()));
  auto nonzero = h->NonzeroBuckets();
  ASSERT_EQ(nonzero.size(), 1u);
  EXPECT_EQ(nonzero.front(),
            (std::pair<int, uint64_t>{Histogram::kMaxExponent + 1, 3}));
  // The exported JSON stays valid: no bare nan/inf number tokens.
  const std::string json = reg.ToJson();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(MetricsTest, HistogramBucketBoundsAreOneSharedAscendingTable) {
  auto bounds = runtime::Histogram::BucketBounds();
  ASSERT_EQ(bounds.size(), runtime::Histogram::kNumBuckets - 1);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_DOUBLE_EQ(bounds.front(),
                   std::pow(2.0, runtime::Histogram::kMinExponent));
  EXPECT_DOUBLE_EQ(bounds.back(),
                   std::pow(2.0, runtime::Histogram::kMaxExponent));
  // Same table object for every call — the process-wide sharing contract.
  EXPECT_EQ(bounds.data(), runtime::Histogram::BucketBounds().data());
}

TEST(MetricsTest, PointersAreStableAndShared) {
  MetricsRegistry reg;
  auto* a = reg.GetCounter("same");
  auto* b = reg.GetCounter("same");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, JsonExportIsSortedAndWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Increment(7);
  reg.GetCounter("a.count")->Increment(3);
  reg.GetGauge("load")->Set(1.0);
  reg.GetTimer("solve")->Record(0.25);
  reg.GetHistogram("bytes")->Record(3.0);
  reg.GetHistogram("bytes")->Record(3.0);
  reg.GetHistogram("bytes")->Record(1024.0);
  std::string json = reg.ToJson();
  EXPECT_EQ(json,
            "{\"counters\":{\"a.count\":3,\"b.count\":7},"
            "\"gauges\":{\"load\":1},"
            "\"histograms\":{\"bytes\":{\"count\":3,\"sum\":1030,"
            "\"p50\":4,\"p90\":1024,\"p99\":1024,"
            "\"buckets\":{\"2^2\":2,\"2^10\":1}}},"
            "\"timers\":{\"solve\":{\"count\":1,\"total_seconds\":0.25,"
            "\"mean_seconds\":0.25,\"max_seconds\":0.25}}}");
}

TEST(MetricsTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  auto* c = reg.GetCounter("c");
  c->Increment(5);
  auto* h = reg.GetHistogram("h");
  h->Record(7.0);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.GetCounter("c"), c);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.GetHistogram("h"), h);
}

TEST(MetricsTest, ConcurrentIncrementsDoNotLoseCounts) {
  MetricsRegistry reg;
  auto* c = reg.GetCounter("hot");
  ThreadPool pool(4);
  pool.ParallelFor(0, 1000, [&](size_t) { c->Increment(); });
  EXPECT_EQ(c->value(), 1000u);
}

// ------------------------------------------------------------ the solvers

// Serialized basis bytes: the strongest cheap equality check we have — the
// problem's own wire format, so any drift in the computed basis shows up.
template <typename P, typename R>
std::vector<uint8_t> BasisBytes(const P& problem, const R& result) {
  BitWriter w;
  for (const auto& c : result.basis) problem.SerializeConstraint(c, &w);
  return w.Release();
}

TEST(RuntimeDeterminismTest, CoordinatorBitIdenticalAcrossThreadCounts) {
  auto [problem, constraints] = MakeFeasibleLpCase(20000, 2, 99);
  Rng rng(99);
  auto parts = workload::Partition(constraints, 32, true, &rng);

  coord::CoordinatorStats base_stats;
  std::vector<uint8_t> base_basis;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    coord::CoordinatorOptions opt;
    opt.net.scale = 0.1;
    opt.seed = 4242;
    opt.runtime.num_threads = threads;
    coord::CoordinatorStats stats;
    auto result = coord::SolveCoordinator(problem, parts, opt, &stats);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    ExpectMatchesDirect(problem, constraints, result->value, "coordinator");
    EXPECT_EQ(stats.threads, threads);
    if (threads == 1) {
      base_stats = stats;
      base_basis = BasisBytes(problem, *result);
      continue;
    }
    EXPECT_EQ(BasisBytes(problem, *result), base_basis)
        << "basis drifted at threads=" << threads;
    EXPECT_EQ(stats.total_bytes, base_stats.total_bytes);
    EXPECT_EQ(stats.messages, base_stats.messages);
    EXPECT_EQ(stats.rounds, base_stats.rounds);
    EXPECT_EQ(stats.iterations, base_stats.iterations);
    EXPECT_EQ(stats.sample_size, base_stats.sample_size);
  }
}

TEST(RuntimeDeterminismTest, MpcBitIdenticalAcrossThreadCounts) {
  auto [problem, constraints] = MakeFeasibleLpCase(16000, 2, 77);
  Rng rng(77);
  auto parts = workload::Partition(constraints, 32, true, &rng);

  mpc::MpcStats base_stats;
  std::vector<uint8_t> base_basis;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    mpc::MpcOptions opt;
    opt.delta = 0.5;
    opt.net.scale = 0.1;
    opt.seed = 1717;
    opt.runtime.num_threads = threads;
    mpc::MpcStats stats;
    auto result = mpc::SolveMpc(problem, parts, opt, &stats);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    ExpectMatchesDirect(problem, constraints, result->value, "mpc");
    EXPECT_EQ(stats.threads, threads);
    if (threads == 1) {
      base_stats = stats;
      base_basis = BasisBytes(problem, *result);
      continue;
    }
    EXPECT_EQ(BasisBytes(problem, *result), base_basis)
        << "basis drifted at threads=" << threads;
    EXPECT_EQ(stats.total_bytes, base_stats.total_bytes);
    EXPECT_EQ(stats.max_load_bytes, base_stats.max_load_bytes);
    EXPECT_EQ(stats.rounds, base_stats.rounds);
    EXPECT_EQ(stats.iterations, base_stats.iterations);
  }
}

// The shape of the e2e benchmark's mpc-lp workload (bench/e2e): 50k d=3
// constraints in 16 shuffled parts at delta = 1/3 and net scale 0.5 draw
// ~8.8k-constraint samples, above the 4096 oversized-basis cut, so every
// iteration takes the oversized dispatch (solved inline on the driver
// thread). Two solves on one shared 4-thread pool and one serial solve must
// agree on every transcript field.
TEST(RuntimeDeterminismTest, MpcBenchShapeIsRepeatable) {
  auto [problem, constraints] = MakeFeasibleLpCase(50000, 3, 2024);
  Rng rng(2024);
  auto parts = workload::Partition(constraints, 16, /*shuffled=*/true, &rng);
  runtime::Counter* oversized =
      MetricsRegistry::Global().GetCounter("engine.oversized_basis_solves");

  ThreadPool pool(4);
  struct Run {
    std::vector<uint8_t> basis;
    mpc::MpcStats stats;
  };
  std::vector<Run> runs;
  ThreadPool* const run_pools[] = {&pool, &pool, nullptr};
  for (ThreadPool* run_pool : run_pools) {
    mpc::MpcOptions opt;
    opt.delta = 1.0 / 3.0;
    opt.net.scale = 0.5;
    opt.seed = 0x4D9C;
    opt.runtime.pool = run_pool;
    opt.runtime.num_threads = 1;
    const uint64_t oversized_before = oversized->value();
    Run run;
    auto result = mpc::SolveMpc(problem, parts, opt, &run.stats);
    ASSERT_TRUE(result.ok()) << "run " << runs.size();
    EXPECT_GT(run.stats.sample_size, 4096u);
    EXPECT_GT(oversized->value(), oversized_before) << "run " << runs.size();
    if (runs.empty()) {
      ExpectMatchesDirect(problem, constraints, result->value,
                          "mpc bench shape");
    }
    run.basis = BasisBytes(problem, *result);
    runs.push_back(std::move(run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_EQ(runs[i].basis, runs[0].basis);
    EXPECT_EQ(runs[i].stats.rounds, runs[0].stats.rounds);
    EXPECT_EQ(runs[i].stats.total_bytes, runs[0].stats.total_bytes);
    EXPECT_EQ(runs[i].stats.iterations, runs[0].stats.iterations);
    EXPECT_EQ(runs[i].stats.max_load_bytes, runs[0].stats.max_load_bytes);
  }
}

TEST(RuntimeDeterminismTest, ExternalPoolMatchesOwnedPool) {
  auto [problem, constraints] = MakeFeasibleLpCase(8000, 2, 55);
  Rng rng(55);
  auto parts = workload::Partition(constraints, 16, true, &rng);

  coord::CoordinatorOptions opt;
  opt.net.scale = 0.1;
  opt.seed = 321;
  opt.runtime.num_threads = 4;
  coord::CoordinatorStats owned_stats;
  auto owned = coord::SolveCoordinator(problem, parts, opt, &owned_stats);
  ASSERT_TRUE(owned.ok());

  ThreadPool pool(4);
  opt.runtime.pool = &pool;
  coord::CoordinatorStats ext_stats;
  auto external = coord::SolveCoordinator(problem, parts, opt, &ext_stats);
  ASSERT_TRUE(external.ok());
  EXPECT_EQ(BasisBytes(problem, *owned), BasisBytes(problem, *external));
  EXPECT_EQ(owned_stats.total_bytes, ext_stats.total_bytes);
}

// ---------------------------------------------------------- SolverService

TEST(SolverServiceTest, RunsJobsAndReportsStats) {
  MetricsRegistry reg;
  SolverService::Options sopt;
  sopt.num_threads = 4;
  sopt.metrics = &reg;
  SolverService service(sopt);
  EXPECT_EQ(service.num_threads(), 4u);

  std::vector<std::future<double>> futures;
  for (int j = 0; j < 16; ++j) {
    futures.push_back(service.Submit("lp", [j] {
      auto [problem, constraints] = MakeFeasibleLpCase(500, 2, 100 + j);
      return testing_util::DirectValue(problem, constraints).objective;
    }));
  }
  for (int j = 0; j < 16; ++j) {
    auto [problem, constraints] = MakeFeasibleLpCase(500, 2, 100 + j);
    EXPECT_DOUBLE_EQ(futures[j].get(),
                     testing_util::DirectValue(problem, constraints).objective)
        << "job " << j;
  }
  service.Drain();
  auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(service.inflight(), 0u);
  EXPECT_EQ(reg.GetCounter("solver_service.jobs_submitted")->value(), 16u);
  EXPECT_EQ(reg.GetCounter("solver_service.jobs.lp")->value(), 16u);
  EXPECT_EQ(reg.GetTimer("solver_service.job_seconds")->count(), 16u);
}

TEST(SolverServiceTest, FailedJobCountsAndFutureRethrows) {
  MetricsRegistry reg;
  SolverService::Options sopt;
  sopt.num_threads = 2;
  sopt.metrics = &reg;
  SolverService service(sopt);
  auto bad = service.Submit("bad", []() -> int {
    throw std::runtime_error("job failed");
  });
  auto good = service.Submit("good", [] { return 7; });
  EXPECT_EQ(good.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  service.Drain();
  auto stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(reg.GetCounter("solver_service.jobs_failed")->value(), 1u);
}

TEST(SolverServiceTest, DestructorDrains) {
  std::atomic<int> done{0};
  {
    SolverService::Options sopt;
    sopt.num_threads = 2;
    MetricsRegistry reg;
    sopt.metrics = &reg;
    SolverService service(sopt);
    for (int j = 0; j < 32; ++j) {
      service.Submit("tick", [&done] {
        ++done;
        return 0;
      });
    }
  }
  EXPECT_EQ(done.load(), 32);
}

}  // namespace
}  // namespace lplow
