// The unified Clarkson-style iterative-refinement engine (Algorithm 1's
// outer loop) shared by the three protocol models of Theorems 1-3.
//
// Every model runs the same scheme — sample by weight, solve a basis on the
// sample, scan for violators, reweight on success — and differs only in how
// the steps are *transported*: coordinator channel rounds, MPC tree
// broadcasts/converge-casts, or streaming passes. RunRefinement owns the
// loop (iteration counting, the eps-net success test, the terminal
// zero-violator exit, and the Las Vegas iteration-cap fallback); a
// RefinementTransport supplies the model-specific steps; RefinementPolicy
// carries the paper parameters (eps, the n^{1/r} weight rate, the sample
// size m, the iteration cap, and the fallback discipline).
//
// Determinism: the engine adds no randomness and no reordering — every RNG
// draw happens inside the transport in the same order the pre-engine
// per-model loops used, so bases, stats, and byte/round counters are
// bit-identical to the hand-rolled implementations
// (tests/engine_equivalence_test.cc pins this against captured goldens).
//
// Concurrency: oversized sample bases (and the fallback direct solve) are
// dispatched through the injectable runtime::SolveBackend seam
// (RefinementPolicy::solver_backend — e.g. a ShardedSolverService) when one
// is set, and solved inline on the calling thread otherwise; the transports
// run their violator scans as SiteExecutor rounds whose per-store kernels
// fan out over RefinementPolicy::pool — identical results at every thread
// count and every shard count.
// docs/engine.md documents the contract and how to add a model.

#ifndef LPLOW_ENGINE_REFINEMENT_H_
#define LPLOW_ENGINE_REFINEMENT_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/core/eps_net.h"
#include "src/core/lp_type.h"
#include "src/engine/constraint_store.h"
#include "src/runtime/metrics.h"
#include "src/runtime/solve_backend.h"
#include "src/runtime/thread_pool.h"
#include "src/runtime/trace.h"
#include "src/runtime/wire.h"
#include "src/util/logging.h"
#include "src/util/status.h"

namespace lplow {
namespace engine {

/// The paper parameters of one refinement run plus the engine knobs.
struct RefinementPolicy {
  /// Success threshold: an iteration succeeds iff w(V) <= eps * w(S).
  double eps = 0;
  /// Weight-increase rate n^{1/r} applied to violators on success.
  double rate = 1;
  /// Per-iteration eps-net sample size m.
  size_t sample_size = 0;
  /// Iteration cap (already resolved; the engine never computes it).
  size_t max_iterations = 0;
  /// On hitting the cap: gather everything and solve directly (Las Vegas,
  /// default) or return the transport's cap status.
  bool fallback_to_direct = true;
  /// Solver name for the fallback warning log ("SolveCoordinator", ...).
  const char* name = "RunRefinement";
  /// The pool the transports' per-site rounds and large violator scans fan
  /// out on (null = serial).
  runtime::ThreadPool* pool = nullptr;
  /// Basis solves on samples of at least this many constraints count as
  /// oversized (engine.oversized_basis_solves).
  size_t oversized_basis_threshold = 4096;
  /// Injectable dispatch seam for the oversized and Las Vegas fallback
  /// solves: when set, they run through `solver_backend->Execute` (e.g. on
  /// a ShardedSolverService); when null, inline on the calling thread. Pure
  /// dispatch — the solve, its result, and every deterministic counter are
  /// identical whichever backend runs it.
  runtime::SolveBackend* solver_backend = nullptr;
  /// Routing-key base for backend dispatches (stable per run; the model
  /// solvers use their seed). Each dispatch derives its own key from this
  /// plus its sequence number (runtime::DeriveJobId).
  uint64_t job_id = 0;
  /// Span recorder for engine.run / engine.iteration / engine.violator_scan
  /// / engine.basis_solve spans; null or disabled = no tracing (free on the
  /// hot path). Observability only: spans read timestamps and counters but
  /// never touch solver state, so transcripts and deterministic counters
  /// are identical with tracing on or off.
  runtime::trace::TraceRecorder* trace = nullptr;
};

/// Computes the Algorithm 1 parameters for problem size n and rate
/// exponent r, honoring the streaming ablation overrides (0 = paper value).
/// The iteration cap is model-specific and stays with the caller.
template <LpTypeProblem P>
RefinementPolicy MakePolicy(const P& problem, size_t n, int r,
                            const EpsNetConfig& net, double eps_override = 0,
                            double weight_rate_override = 0,
                            size_t sample_size_override = 0) {
  const size_t nu = problem.CombinatorialDimension();
  const size_t lambda = problem.VcDimension();
  RefinementPolicy policy;
  policy.eps = eps_override > 0
                   ? eps_override
                   : AlgorithmEpsilon(nu, std::max<size_t>(n, 1), r);
  policy.rate = weight_rate_override > 0
                    ? weight_rate_override
                    : WeightIncreaseRate(std::max<size_t>(n, 1), r);
  policy.sample_size =
      sample_size_override > 0
          ? std::min(sample_size_override, n)
          : EpsNetSampleSize(policy.eps, lambda, net, nu + 1, n);
  return policy;
}

/// Applies the RuntimeOptions dispatch knobs to a policy: the solve
/// backend, the routing-key base (the solver seed), and the optional
/// oversized-threshold override. All model solvers route through this so a
/// new knob lands in every model at once.
inline void ApplyRuntimeOptions(RefinementPolicy& policy,
                                const runtime::RuntimeOptions& runtime,
                                uint64_t seed) {
  policy.solver_backend = runtime.solver_backend;
  policy.job_id = seed;
  if (runtime.oversized_basis_threshold > 0) {
    policy.oversized_basis_threshold = runtime.oversized_basis_threshold;
  }
  policy.trace = runtime.trace;
}

/// What one violator scan reports back to the engine. `total_weight` is
/// w(S) under the transport's weight function at scan time.
struct ViolatorScan {
  double total_weight = 0;
  double violator_weight = 0;
  uint64_t violator_count = 0;
};

/// Engine-maintained counters, pointing into the model's stats struct.
struct IterationCounters {
  size_t* iterations = nullptr;
  size_t* successful_iterations = nullptr;
  bool* direct_solve = nullptr;
  /// Optional: total serialized bytes of all eps-net samples drawn.
  size_t* sample_bytes = nullptr;
};

/// Cached pointers to the engine's MetricsRegistry entries (registered on
/// first use; see docs/runtime.md for the schema).
struct EngineMetrics {
  runtime::Counter* iterations;
  runtime::Counter* basis_solves;
  runtime::Counter* oversized_basis_solves;
  runtime::Counter* resample_bytes;
  /// Distribution of per-iteration serialized sample sizes. Byte-valued,
  /// so its bucket counts are deterministic for a fixed seed — the
  /// strict-gateable kind of histogram (docs/runtime.md).
  runtime::Histogram* sample_bytes;
  runtime::Timer* violator_scan_seconds;
  runtime::Timer* basis_solve_seconds;
};
EngineMetrics& GlobalEngineMetrics();

// clang-format off
/// What a protocol model must provide to run under the engine. One
/// NextSample / ScanViolators / EndIteration cycle is one Algorithm 1
/// iteration; GatherAll and Finish serve the fallback and epilogue.
template <typename T, typename P>
concept RefinementTransport =
    LpTypeProblem<P> &&
    requires(T t,
             const BasisResult<typename P::Value, typename P::Constraint>& b,
             BasisResult<typename P::Value, typename P::Constraint> owned,
             bool success) {
  /// Produces the iteration's weighted eps-net sample (applying any
  /// reweighting deferred from the previous success first). Errors abort
  /// the run with the transport's status.
  { t.NextSample() }
      -> std::same_as<Result<std::vector<typename P::Constraint>>>;

  /// Scans the full constraint set against the basis; reports w(S), w(V),
  /// and |V| under the transport's weight function.
  { t.ScanViolators(b) } -> std::same_as<ViolatorScan>;

  /// Closes a non-terminal iteration; `success` is the eps-net test result
  /// (reweight / schedule reweighting on success).
  { t.EndIteration(success, b) };

  /// Cleanup before the terminal (zero-violator) return.
  { t.OnTerminal() };

  /// Ships every constraint for the Las Vegas fallback, with the model's
  /// cost accounting.
  { t.GatherAll() } -> std::same_as<std::vector<typename P::Constraint>>;

  /// Status returned when the cap is hit and fallback is disabled.
  { t.IterationCapStatus() } -> std::same_as<Status>;

  /// Epilogue: flushes stats/metrics and returns the result.
  { t.Finish(std::move(owned)) }
      -> std::same_as<
          Result<BasisResult<typename P::Value, typename P::Constraint>>>;
};
// clang-format on

/// Basis of `sample`, routed through the policy's SolveBackend when the
/// sample is oversized and a backend is set; solved inline on the calling
/// thread otherwise. The solve itself is unchanged (bit-identical result)
/// and the caller blocks on it either way — the routing is a dispatch seam
/// (plus the oversized-solve accounting), not intra-solve parallelism.
/// `solve_seq` numbers the dispatch within the run (iteration index; the
/// fallback uses the iteration cap) so a sharded backend spreads a run's
/// solves deterministically.
///
/// Backends that want serialized jobs (WantsSerialized — e.g. a
/// SocketSolveBackend talking to an `lp_served` daemon) get the sample as a
/// wire::SolveRequest payload instead of a closure; the decoded remote
/// result is bit-identical to a local solve (raw double images cross the
/// wire), and any remote failure falls back to the local closure path, so
/// the transcript never depends on where the solve ran.
template <LpTypeProblem P>
BasisResult<typename P::Value, typename P::Constraint> SolveSampleBasis(
    const P& problem, const std::vector<typename P::Constraint>& sample,
    const RefinementPolicy& policy, uint64_t solve_seq = 0) {
  auto& metrics = GlobalEngineMetrics();
  metrics.basis_solves->Increment();
  runtime::ScopedTimer timer(metrics.basis_solve_seconds);
  runtime::trace::TraceSpan span(policy.trace, "engine.basis_solve");
  span.Arg("iteration", solve_seq);
  span.Arg("constraints", sample.size());
  BasisResult<typename P::Value, typename P::Constraint> out;
  auto solve = [&] {
    out = problem.SolveBasis(
        std::span<const typename P::Constraint>(sample.data(), sample.size()));
  };
  const bool oversized = sample.size() >= policy.oversized_basis_threshold;
  if (oversized) metrics.oversized_basis_solves->Increment();
  runtime::SolveBackend* backend = policy.solver_backend;
  if (oversized && backend != nullptr) {
    const uint64_t dispatch_id = runtime::DeriveJobId(policy.job_id, solve_seq);
    if constexpr (runtime::wire::WireSolvable<P>) {
      if (backend->WantsSerialized()) {
        // The basis-solve span's identity rides inside the request, so a
        // remote daemon's decode/solve/encode spans stitch under this
        // trace (all-zero — absent on the wire — when tracing is off).
        const runtime::trace::SpanContext ctx = span.context();
        auto request = runtime::wire::EncodeSolveRequestPayload(
            dispatch_id, problem,
            std::span<const typename P::Constraint>(sample.data(),
                                                    sample.size()),
            runtime::wire::TraceContext{ctx.trace_id, ctx.span_id});
        std::vector<uint8_t> response;
        if (backend->ExecuteSerialized(dispatch_id, policy.name, request,
                                       &response)) {
          auto remote = runtime::wire::DecodeSolveResponsePayload(
              problem, response, dispatch_id);
          if (remote.ok()) return std::move(remote).value();
          LPLOW_LOG(kWarning) << policy.name << " remote solve failed ("
                              << remote.status().ToString()
                              << "); solving locally";
        }
      }
    }
    backend->Execute(dispatch_id, policy.name, solve);
  } else {
    solve();
  }
  return out;
}

/// The shared Algorithm 1 outer loop. Returns the terminal basis, the
/// fallback direct solve, or the transport's error/cap status.
template <LpTypeProblem P, typename T>
  requires RefinementTransport<T, P>
Result<BasisResult<typename P::Value, typename P::Constraint>> RunRefinement(
    const P& problem, T& transport, const RefinementPolicy& policy,
    const IterationCounters& counters) {
  auto& metrics = GlobalEngineMetrics();
  runtime::trace::TraceSpan run_span(policy.trace, "engine.run");
  run_span.Arg("job_id", policy.job_id);
  run_span.Arg("max_iterations", policy.max_iterations);

  for (size_t iter = 0; iter < policy.max_iterations; ++iter) {
    ++*counters.iterations;
    metrics.iterations->Increment();
    runtime::trace::TraceSpan iter_span(policy.trace, "engine.iteration");
    iter_span.Arg("iteration", iter);

    // --- weighted eps-net sample (model-transported).
    auto sample = transport.NextSample();
    if (!sample.ok()) return sample.status();
    {
      size_t bytes = 0;
      for (const auto& c : *sample) bytes += problem.ConstraintBytes(c);
      if (counters.sample_bytes != nullptr) *counters.sample_bytes += bytes;
      metrics.resample_bytes->Increment(bytes);
      metrics.sample_bytes->Record(static_cast<double>(bytes));
      iter_span.Arg("bytes", bytes);
    }

    // --- basis of the sample (backend-routed when oversized).
    auto basis = SolveSampleBasis(problem, *sample, policy, iter);

    // --- violator scan (model-transported).
    ViolatorScan scan;
    {
      runtime::ScopedTimer timer(metrics.violator_scan_seconds);
      runtime::trace::TraceSpan scan_span(policy.trace,
                                          "engine.violator_scan");
      scan_span.Arg("iteration", iter);
      scan = transport.ScanViolators(basis);
      scan_span.Arg("violators", scan.violator_count);
    }

    if (scan.violator_count == 0) {
      // Terminal: w(V) = 0, so f(B) = f(S) (Lemma 3.1) — a vacuous eps-net
      // success.
      ++*counters.successful_iterations;
      transport.OnTerminal();
      return transport.Finish(std::move(basis));
    }

    bool success = scan.violator_weight <= policy.eps * scan.total_weight;
    if (success) ++*counters.successful_iterations;
    transport.EndIteration(success, basis);
  }

  if (!policy.fallback_to_direct) return transport.IterationCapStatus();

  // Las Vegas promise: never return a wrong answer. Gather everything
  // (counted by the transport) and solve directly.
  LPLOW_LOG(kWarning) << policy.name << " hit iteration cap; direct fallback";
  auto all = transport.GatherAll();
  *counters.direct_solve = true;
  return transport.Finish(
      SolveSampleBasis(problem, all, policy, policy.max_iterations));
}

}  // namespace engine
}  // namespace lplow

#endif  // LPLOW_ENGINE_REFINEMENT_H_
