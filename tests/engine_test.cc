// Unit tests of the src/engine layer: ConstraintStore/ConstraintView
// weighted storage (sampling draw discipline, serial predicate scans in
// ascending order, the reweight ceiling), RefinementPolicy construction
// parity with the paper formulas, and the Rng::ForkStream derivation
// contract.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/core/clarkson.h"
#include "src/engine/constraint_store.h"
#include "src/engine/refinement.h"
#include "src/models/coordinator/coordinator_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/testing_util.h"

namespace lplow {
namespace {

using engine::ConstraintStore;
using engine::ConstraintView;
using engine::ViolatorStats;

TEST(ConstraintStoreTest, StartsWithUnitWeights) {
  ConstraintStore<int> store({10, 20, 30});
  EXPECT_EQ(store.size(), 3u);
  auto view = store.View();
  EXPECT_FALSE(view.unit_weights());  // Weighted view, all weights = 1.
  EXPECT_DOUBLE_EQ(view.TotalWeight(), 3.0);
  EXPECT_DOUBLE_EQ(view.weight(1), 1.0);
  EXPECT_EQ(view[2], 30);
}

TEST(ConstraintStoreTest, UnweightedViewHasUnitSemantics) {
  std::vector<int> items = {1, 2, 3, 4};
  ConstraintView<int> view{std::span<const int>(items)};
  EXPECT_TRUE(view.unit_weights());
  EXPECT_DOUBLE_EQ(view.TotalWeight(), 4.0);
  EXPECT_DOUBLE_EQ(view.weight(0), 1.0);
}

TEST(ConstraintStoreTest, ScaleViolatorsMultipliesMatchingWeights) {
  ConstraintStore<int> store({1, 2, 3, 4, 5});
  store.View().ScaleViolators([](int v) { return v % 2 == 0; }, 3.0);
  auto view = store.View();
  EXPECT_DOUBLE_EQ(view.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(view.weight(1), 3.0);
  EXPECT_DOUBLE_EQ(view.weight(3), 3.0);
  EXPECT_DOUBLE_EQ(view.TotalWeight(), 1 + 3 + 1 + 3 + 1);
}

TEST(ConstraintStoreTest, CountViolatorsAscendingOrder) {
  ConstraintStore<int> store({5, -1, 7, -2, 9});
  ViolatorStats st =
      store.View().CountViolators([](int v) { return v < 0; });
  EXPECT_EQ(st.count, 2u);
  EXPECT_DOUBLE_EQ(st.weight, 2.0);
}

TEST(ConstraintStoreTest, CollectViolatorsPreservesIndexOrder) {
  std::vector<int> items = {4, -3, 8, -1, 6};
  ConstraintView<int> view{std::span<const int>(items)};
  auto violated = view.CollectViolators([](int v) { return v < 0; });
  ASSERT_EQ(violated.size(), 2u);
  EXPECT_EQ(violated[0], -3);
  EXPECT_EQ(violated[1], -1);
}

TEST(ConstraintStoreTest, SampleConsumesExactlyCountDraws) {
  ConstraintStore<int> store({1, 2, 3, 4, 5, 6, 7, 8});
  Rng a(42), b(42);
  auto picks = store.View().SampleIndices(5, &a);
  EXPECT_EQ(picks.size(), 5u);
  // Same generator state evolution as five raw uniform draws.
  for (int i = 0; i < 5; ++i) b.UniformDouble();
  EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(ConstraintStoreTest, EmptyViewSamplesNothingAndDrawsNothing) {
  ConstraintStore<int> store;
  Rng a(7), b(7);
  EXPECT_TRUE(store.View().SampleIndices(9, &a).empty());
  EXPECT_EQ(a.engine()(), b.engine()());  // Zero draws consumed.
}

TEST(ConstraintStoreTest, SamplingFollowsWeights) {
  // Weight mass concentrated on index 2: nearly all picks land there.
  ConstraintStore<int> store({0, 1, 2, 3});
  store.View().ScaleViolators([](int v) { return v == 2; }, 1e9);
  Rng rng(3);
  auto picks = store.View().SampleIndices(200, &rng);
  size_t heavy = 0;
  for (size_t p : picks) heavy += p == 2 ? 1 : 0;
  EXPECT_GT(heavy, 195u);
}

TEST(ConstraintStoreTest, ScaleViolatorsSaturatesAtTheCeiling) {
  // The deterministic transport reweights on EVERY iteration, so it passes
  // a finite ceiling: weights cap there instead of overflowing double.
  ConstraintStore<int> store({1, 2, 3, 4});
  auto even = [](int v) { return v % 2 == 0; };
  for (int i = 0; i < 5; ++i) {
    store.View().ScaleViolators(even, 10.0, /*ceiling=*/500.0);
  }
  auto view = store.View();
  EXPECT_DOUBLE_EQ(view.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(view.weight(1), 500.0);  // 10^5 capped at 500.
  EXPECT_DOUBLE_EQ(view.weight(3), 500.0);
}

TEST(EnginePolicyTest, MatchesPaperFormulas) {
  auto c = testing_util::MakeFeasibleLpCase(5000, 2, 11);
  const size_t nu = c.problem.CombinatorialDimension();
  const size_t lambda = c.problem.VcDimension();
  EpsNetConfig net;
  auto policy = engine::MakePolicy(c.problem, 5000, 3, net);
  EXPECT_DOUBLE_EQ(policy.eps, AlgorithmEpsilon(nu, 5000, 3));
  EXPECT_DOUBLE_EQ(policy.rate, WeightIncreaseRate(5000, 3));
  EXPECT_EQ(policy.sample_size,
            EpsNetSampleSize(policy.eps, lambda, net, nu + 1, 5000));
}

TEST(EnginePolicyTest, OverridesWinAndSampleSizeClamps) {
  auto c = testing_util::MakeFeasibleLpCase(100, 2, 12);
  auto policy =
      engine::MakePolicy(c.problem, 100, 2, EpsNetConfig{}, /*eps=*/0.25,
                         /*rate=*/2.0, /*sample_size=*/100000);
  EXPECT_DOUBLE_EQ(policy.eps, 0.25);
  EXPECT_DOUBLE_EQ(policy.rate, 2.0);
  EXPECT_EQ(policy.sample_size, 100u);  // Clamped to n.
}

TEST(EnginePolicyTest, ZeroSizeInputEdgeCases) {
  // Edge cases the sampling-free model surfaced: MakePolicy must stay
  // finite at n = 0 (the formulas guard with max(n, 1)), and a sample-size
  // override is clamped to n — so with n = 0 an override yields a
  // ZERO-sample policy, while the paper formula keeps its nu + 1 floor.
  auto c = testing_util::MakeFeasibleLpCase(10, 2, 15);
  const size_t nu = c.problem.CombinatorialDimension();

  auto formula = engine::MakePolicy(c.problem, 0, 2, EpsNetConfig{});
  EXPECT_TRUE(std::isfinite(formula.eps));
  EXPECT_GT(formula.eps, 0.0);
  EXPECT_GE(formula.rate, 1.0);
  EXPECT_GE(formula.sample_size, nu + 1);  // The floor survives n = 0.

  auto overridden = engine::MakePolicy(c.problem, 0, 2, EpsNetConfig{},
                                       /*eps=*/0, /*rate=*/0,
                                       /*sample_size=*/64);
  EXPECT_EQ(overridden.sample_size, 0u);  // min(override, n) with n = 0.
}

// Minimal transport over LinearProgram for engine-loop edge cases: serves a
// fixed undersized sample (so violators always remain), counts hook calls,
// and reports a recognizable cap status.
class StubTransport {
 public:
  using Constraint = Halfspace;
  using Value = LinearProgram::Value;

  StubTransport(const LinearProgram& problem, std::vector<Halfspace> all,
                size_t sample_size)
      : problem_(problem), all_(std::move(all)), sample_size_(sample_size) {}

  Result<std::vector<Halfspace>> NextSample() {
    ++samples_served;
    return std::vector<Halfspace>(all_.begin(), all_.begin() + sample_size_);
  }
  engine::ViolatorScan ScanViolators(
      const BasisResult<Value, Halfspace>& basis) {
    engine::ViolatorScan scan;
    for (const auto& h : all_) {
      scan.total_weight += 1.0;
      if (problem_.Violates(basis.value, h)) {
        scan.violator_weight += 1.0;
        ++scan.violator_count;
      }
    }
    return scan;
  }
  void EndIteration(bool success, const BasisResult<Value, Halfspace>&) {
    ++iterations_closed;
    successes += success ? 1 : 0;
  }
  void OnTerminal() { ++terminals; }
  std::vector<Halfspace> GatherAll() {
    ++gathers;
    return all_;
  }
  Status IterationCapStatus() { return Status::ResourceExhausted("stub cap"); }
  Result<BasisResult<Value, Halfspace>> Finish(
      BasisResult<Value, Halfspace> result) {
    ++finishes;
    return result;
  }

  size_t samples_served = 0;
  size_t iterations_closed = 0;
  size_t successes = 0;
  size_t terminals = 0;
  size_t gathers = 0;
  size_t finishes = 0;

 private:
  const LinearProgram& problem_;
  std::vector<Halfspace> all_;
  size_t sample_size_;
};

/// An instance + policy where the stub's fixed 3-constraint sample always
/// leaves violators, so RunRefinement can only exit through the cap.
struct CapFixture {
  CapFixture()
      : c(testing_util::MakeFeasibleLpCase(2000, 2, 16)),
        transport(c.problem, c.constraints, 3) {
    policy = engine::MakePolicy(c.problem, c.constraints.size(), 2,
                                EpsNetConfig{});
    policy.fallback_to_direct = false;
    counters = engine::IterationCounters{&iterations, &successful,
                                         &direct_solve, &sample_bytes};
  }

  testing_util::LpCase c;
  StubTransport transport;
  engine::RefinementPolicy policy;
  size_t iterations = 0, successful = 0, sample_bytes = 0;
  bool direct_solve = false;
  engine::IterationCounters counters;
};

TEST(EngineRunTest, IterationCapWithoutFallbackReturnsTransportStatus) {
  CapFixture f;
  f.policy.max_iterations = 4;
  auto result =
      engine::RunRefinement(f.c.problem, f.transport, f.policy, f.counters);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(f.iterations, 4u);
  EXPECT_EQ(f.transport.samples_served, 4u);
  EXPECT_EQ(f.transport.iterations_closed, 4u);
  EXPECT_FALSE(f.direct_solve);
  // The cap path must not touch the terminal/fallback hooks.
  EXPECT_EQ(f.transport.terminals, 0u);
  EXPECT_EQ(f.transport.gathers, 0u);
  EXPECT_EQ(f.transport.finishes, 0u);
}

TEST(EngineRunTest, ZeroIterationCapSkipsTheLoopEntirely) {
  // A zero cap (e.g. from an unguarded max_iterations knob) must not crash
  // or sample: without fallback it is an immediate cap status...
  CapFixture f;
  f.policy.max_iterations = 0;
  auto result =
      engine::RunRefinement(f.c.problem, f.transport, f.policy, f.counters);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(f.transport.samples_served, 0u);

  // ...and with fallback it degenerates to gather-everything + direct
  // solve, which still returns the exact optimum (the Las Vegas promise
  // with zero refinement budget).
  CapFixture g;
  g.policy.max_iterations = 0;
  g.policy.fallback_to_direct = true;
  auto recovered =
      engine::RunRefinement(g.c.problem, g.transport, g.policy, g.counters);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(g.direct_solve);
  EXPECT_EQ(g.transport.gathers, 1u);
  EXPECT_EQ(g.transport.finishes, 1u);
  testing_util::ExpectMatchesDirect(g.c.problem, g.c.constraints,
                                    recovered->value, "zero-cap fallback");
}

TEST(EngineMetricsTest, MetricsAreRegisteredGlobally) {
  auto& m = engine::GlobalEngineMetrics();
  ASSERT_NE(m.iterations, nullptr);
  ASSERT_NE(m.violator_scan_seconds, nullptr);
  // The registry hands back the same pointers for the engine names.
  auto& registry = runtime::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("engine.iterations"), m.iterations);
  EXPECT_EQ(registry.GetCounter("engine.resample_bytes"), m.resample_bytes);
  EXPECT_EQ(registry.GetTimer("engine.basis_solve_seconds"),
            m.basis_solve_seconds);
}

TEST(RngForkStreamTest, MatchesReTemperedForkDerivation) {
  // ForkStream(i) == Rng(Fork().engine()()): one parent draw consumed, the
  // child seeded from the fork's first output (the coordinator-site
  // derivation the models standardized on).
  Rng parent_a(123), parent_b(123);
  Rng via_helper = parent_a.ForkStream(0);
  Rng via_hand = Rng(parent_b.Fork().engine()());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(via_helper.engine()(), via_hand.engine()());
  }
  // Parent states advanced identically (exactly one draw each).
  EXPECT_EQ(parent_a.engine()(), parent_b.engine()());
}

TEST(EngineNestedParallelismTest, SingleHugeSiteMatchesSerial) {
  // One site holding the whole input pushes the per-site scan above
  // kParallelScanMinItems, so with threads > 1 the site's violator scan and
  // reweighting run as a *nested* ParallelFor inside the SiteExecutor round
  // — the transcript must still be bit-identical to the serial path.
  auto c = testing_util::MakeFeasibleLpCase(20000, 2, 14);
  coord::CoordinatorStats serial_stats;
  coord::CoordinatorOptions opt;
  opt.net.scale = 0.1;
  opt.seed = 77;
  auto serial =
      coord::SolveCoordinator(c.problem, {c.constraints}, opt, &serial_stats);
  ASSERT_TRUE(serial.ok());

  opt.runtime.num_threads = 4;
  coord::CoordinatorStats pooled_stats;
  auto pooled =
      coord::SolveCoordinator(c.problem, {c.constraints}, opt, &pooled_stats);
  ASSERT_TRUE(pooled.ok());

  EXPECT_EQ(c.problem.CompareValues(serial->value, pooled->value), 0);
  EXPECT_EQ(serial_stats.total_bytes, pooled_stats.total_bytes);
  EXPECT_EQ(serial_stats.rounds, pooled_stats.rounds);
  EXPECT_EQ(serial_stats.iterations, pooled_stats.iterations);
  EXPECT_EQ(serial_stats.sample_bytes, pooled_stats.sample_bytes);
  BitWriter wa, wb;
  for (const auto& h : serial->basis) c.problem.SerializeConstraint(h, &wa);
  for (const auto& h : pooled->basis) c.problem.SerializeConstraint(h, &wb);
  EXPECT_EQ(wa.Release(), wb.Release());
}

TEST(RngForkStreamTest, SequentialStreamIdsRequired) {
  Rng parent(9);
  Rng s0 = parent.ForkStream(0);
  Rng s1 = parent.ForkStream(1);
  // Sibling streams differ.
  EXPECT_NE(s0.engine()(), s1.engine()());
}

}  // namespace
}  // namespace lplow
