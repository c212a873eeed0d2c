// Violator-scan microbenchmark: the SIMD SoA scan across dimension × size,
// with and without a pool to fan out on, plus the fused scan-and-reweight
// (the engine's "evaluate the predicate once per iteration" optimization).
//
// Counter discipline (scripts/bench_compare.py): `violators`, `viol_weight`,
// and `fused` are deterministic on EVERY ISA and pool setting — the kernels'
// violation bitmaps are bitwise-equal to the scalar predicate, and fusion
// keys on exact query bytes — so they are strict-gated by the bench-perf CI
// job. Which kernel variant dispatch picks is machine-dependent (CPU
// features, LPLOW_FORCE_SCALAR_SCAN), so the vector-block / scalar-lane
// tallies ride as report-only `_rpt` counters, like the timings.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/engine/constraint_store.h"
#include "src/engine/scan_kernel.h"
#include "src/models/coordinator/coordinator_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

namespace lplow {
namespace {

void BM_LpViolatorScan(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const bool use_pool = state.range(2) != 0;

  Rng rng(0x5CA9 + 31 * dim + n);
  auto inst = workload::RandomFeasibleLp(n, dim, &rng);
  LinearProgram problem(inst.objective);
  engine::ConstraintStore<Halfspace> store;
  for (auto& c : inst.constraints) store.Append(std::move(c));

  // Scan against the optimum of a small prefix: feasible there, violated by
  // a healthy fraction of the rest, so the scan has real work to count.
  auto seed = problem.SolveBasis(std::span<const Halfspace>(
      store.items().data(), std::min(n, 3 * dim + 1)));

  runtime::ThreadPool pool(2);
  runtime::ThreadPool* scan_pool = use_pool ? &pool : nullptr;

  auto& metrics = engine::GlobalScanMetrics();
  const uint64_t fused0 = metrics.fused_reweights->value();
  const uint64_t blocks0 = metrics.simd_blocks->value();
  const uint64_t tail0 = metrics.scalar_tail->value();

  engine::ViolatorStats stats;
  for (auto _ : state) {
    auto view = store.View();
    stats = view.ScanViolators(problem, seed.value, scan_pool);
    // Same value again: this reweight is served from the scan's bitmap
    // (the fused path).
    view.ScaleViolatorsFused(problem, seed.value, 2.0, scan_pool);
    benchmark::DoNotOptimize(stats);
  }

  state.counters["violators"] = static_cast<double>(stats.count);
  state.counters["viol_weight"] = stats.weight;
  state.counters["fused"] =
      static_cast<double>(metrics.fused_reweights->value() - fused0);
  state.counters["simd_blocks_rpt"] =
      static_cast<double>(metrics.simd_blocks->value() - blocks0);
  state.counters["scalar_tail_rpt"] =
      static_cast<double>(metrics.scalar_tail->value() - tail0);
}

BENCHMARK(BM_LpViolatorScan)
    ->ArgNames({"d", "n", "pool"})
    // Pool sweep: identical violators/viol_weight on both rows is the
    // bit-identity claim; only the times differ.
    ->Args({8, 65536, 0})
    ->Args({8, 65536, 1})
    // Size sweep (straddles kParallelScanMinItems and the SoA block width).
    ->Args({8, 1000, 0})
    ->Args({8, 8192, 0})
    // Dimension sweep (lane-per-constraint: cost scales with d, the
    // bitmap does not).
    ->Args({2, 65536, 0})
    ->Args({13, 65536, 0})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// End-to-end: a coordinator LP solve on the default scan path. The
// strict-gated `rounds`/`iters` must match bench_coordinator_lp's behavior
// exactly (fusion must not change the transcript), while `fused` > 0 shows
// the R1 reweights really are served from the R3 scan bitmaps.
void BM_LpCoordinatorFusedScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(0xE2 + n + 31 * 3 + 7 * 4);  // mirror bench_coordinator_lp's seed
  auto inst = workload::RandomFeasibleLp(n, 2, &rng);
  LinearProgram problem(inst.objective);
  auto parts = workload::Partition(inst.constraints, 4, true, &rng);

  auto& metrics = engine::GlobalScanMetrics();
  const uint64_t fused0 = metrics.fused_reweights->value();

  coord::CoordinatorStats stats;
  for (auto _ : state) {
    coord::CoordinatorOptions opt;
    opt.r = 3;
    opt.net.scale = 0.1;
    opt.seed = 0xE2;
    auto result = coord::SolveCoordinator(problem, parts, opt, &stats);
    if (!result.ok()) state.SkipWithError("solve failed");
    benchmark::DoNotOptimize(result);
  }

  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["iters"] = static_cast<double>(stats.iterations);
  state.counters["fused"] =
      static_cast<double>(metrics.fused_reweights->value() - fused0);
}

BENCHMARK(BM_LpCoordinatorFusedScan)
    ->ArgNames({"n"})
    ->Args({100000})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace lplow
