// Experiment E14 (Propositions 4.1-4.3): throughput of the T_b (basis
// computation) and T_v (violation test) primitives for LP, SVM, and MEB —
// the quantities the paper's running-time theorems are parameterized by.

#include <benchmark/benchmark.h>

#include <span>

#include "src/problems/linear_program.h"
#include "src/problems/linear_svm.h"
#include "src/problems/min_enclosing_ball.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

namespace lplow {
namespace {

void BM_LpBasisSolve(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Rng rng(0xEC);
  auto inst = workload::RandomFeasibleLp(m, d, &rng);
  LinearProgram problem(inst.objective);
  for (auto _ : state) {
    auto basis = problem.SolveBasis(
        std::span<const Halfspace>(inst.constraints));
    benchmark::DoNotOptimize(basis);
  }
  state.SetItemsProcessed(state.iterations() * m);
}

BENCHMARK(BM_LpBasisSolve)
    ->ArgNames({"m", "d"})
    ->Args({1000, 2})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 6})
    ->Unit(benchmark::kMicrosecond);

void BM_LpViolationScan(benchmark::State& state) {
  const size_t t = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Rng rng(0xEC);
  auto inst = workload::RandomFeasibleLp(t, d, &rng);
  LinearProgram problem(inst.objective);
  auto value = problem.SolveValue(
      std::span<const Halfspace>(inst.constraints));
  for (auto _ : state) {
    size_t violators = 0;
    for (const auto& c : inst.constraints) {
      violators += problem.Violates(value, c);
    }
    benchmark::DoNotOptimize(violators);
  }
  state.SetItemsProcessed(state.iterations() * t);
}

BENCHMARK(BM_LpViolationScan)
    ->ArgNames({"t", "d"})
    ->Args({100000, 2})
    ->Args({100000, 5})
    ->Unit(benchmark::kMicrosecond);

void BM_SvmBasisSolve(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Rng rng(0xEC);
  auto pts = workload::SeparableSvmData(m, 3, 0.5, &rng);
  LinearSvm problem(3);
  for (auto _ : state) {
    auto basis = problem.SolveBasis(std::span<const SvmPoint>(pts));
    benchmark::DoNotOptimize(basis);
  }
  state.SetItemsProcessed(state.iterations() * m);
}

BENCHMARK(BM_SvmBasisSolve)
    ->ArgNames({"m"})
    ->Args({100})
    ->Args({1000})
    ->Args({5000})
    ->Unit(benchmark::kMicrosecond);

void BM_MebBasisSolve(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Rng rng(0xEC);
  auto pts = workload::GaussianCloud(m, d, &rng);
  MinEnclosingBall problem(d);
  for (auto _ : state) {
    auto basis = problem.SolveBasis(std::span<const Vec>(pts));
    benchmark::DoNotOptimize(basis);
  }
  state.SetItemsProcessed(state.iterations() * m);
}

BENCHMARK(BM_MebBasisSolve)
    ->ArgNames({"m", "d"})
    ->Args({1000, 2})
    ->Args({10000, 3})
    ->Args({10000, 6})
    ->Unit(benchmark::kMicrosecond);

void BM_MebViolationScan(benchmark::State& state) {
  const size_t t = static_cast<size_t>(state.range(0));
  Rng rng(0xEC);
  auto pts = workload::GaussianCloud(t, 3, &rng);
  MinEnclosingBall problem(3);
  auto value = problem.SolveValue(std::span<const Vec>(pts));
  for (auto _ : state) {
    size_t violators = 0;
    for (const auto& c : pts) violators += problem.Violates(value, c);
    benchmark::DoNotOptimize(violators);
  }
  state.SetItemsProcessed(state.iterations() * t);
}

BENCHMARK(BM_MebViolationScan)
    ->ArgNames({"t"})
    ->Args({100000})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lplow
