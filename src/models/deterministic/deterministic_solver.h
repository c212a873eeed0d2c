// The fourth model: a sampling-free, fully deterministic merge-and-reduce
// implementation of the paper's iterative-refinement scheme.
//
// The three protocol models of Theorems 1-3 draw their eps-net samples at
// random; this solver replaces the random draw with a deterministic
// merge-and-reduce selection and the success-gated reweighting with a
// deterministic every-iteration reweighting, while the loop itself
// (sample -> basis -> violator scan -> reweight, terminal exit, Las Vegas
// iteration-cap fallback) still runs unchanged in the shared engine
// (engine::RunRefinement, src/engine/refinement.h). It is the natural
// RNG-free baseline for the randomized bounds: identical loop, identical
// policy formulas, zero random bits.
//
// One iteration of the deterministic transport:
//
//   merge:  each block ships its locally heaviest min(m, |block|)
//           constraints to the driver (ties broken by ascending index);
//           the driver keeps the globally heaviest m, merged in
//           (weight desc, block asc, index asc) order.
//   reduce: the engine solves the basis of (previous basis + merged
//           candidates) and broadcasts it for the violator scan.
//   reweight: EVERY non-terminal iteration multiplies violator weights by
//           the paper rate n^{1/r}, saturating at kDeterministicWeightCeiling
//           so the unbounded update count cannot overflow double.
//
// Why this terminates (and is exact): the sample always contains the
// previous basis, so f(basis(sample)) never decreases (LP-type
// monotonicity). While f stalls, the violators of the stalled value gain
// weight geometrically and non-violators do not, so some violator
// eventually enters the global top-m — and a sampled violator forces a
// strict f increase (Property (P2)). f takes finitely many values, so the
// loop reaches the zero-violator terminal, where f(B) = f(S) exactly
// (Lemma 3.1). The engine's Las Vegas fallback additionally covers the
// (saturation-tie) corner where a stall could outlive the iteration cap.
//
// Determinism: there is no DeterministicOptions::seed — the model consumes
// ZERO random bits. Candidate selection, merges, scans, and reweighting are
// all fixed-order, so the transcript (basis bytes, iteration counts, byte
// counters) is bit-identical across reruns, thread counts, shard counts,
// and solve backends (tests/deterministic_test.cc,
// tests/engine_equivalence_test.cc, tests/sharded_service_test.cc).
//
// Concurrency: per-block candidate selection, violator scans, and
// reweighting run as runtime::SiteExecutor rounds (block-local scans fan
// the SIMD kernel out over the same pool once a block is large), and the
// engine dispatches oversized sample bases and the fallback solve through
// the runtime::SolveBackend seam when one is set (inline otherwise) —
// exactly like the three randomized models.

#ifndef LPLOW_MODELS_DETERMINISTIC_DETERMINISTIC_SOLVER_H_
#define LPLOW_MODELS_DETERMINISTIC_DETERMINISTIC_SOLVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/clarkson.h"
#include "src/core/eps_net.h"
#include "src/core/lp_type.h"
#include "src/engine/constraint_store.h"
#include "src/engine/refinement.h"
#include "src/runtime/metrics.h"
#include "src/runtime/site_executor.h"
#include "src/runtime/thread_pool.h"
#include "src/util/status.h"

namespace lplow {
namespace det {

/// Violator weights saturate here instead of overflowing double: the
/// deterministic discipline reweights every iteration, so rate^iterations
/// can exceed DBL_MAX long before the iteration cap. Saturated violators
/// remain the global weight maximum, which is all the top-by-weight merge
/// needs for progress.
inline constexpr double kDeterministicWeightCeiling = 1e280;

/// Routing-key base for the engine's SolveBackend dispatches. The model has
/// no seed, so the base is a fixed constant — routing affects only *where*
/// a solve runs, never its result.
inline constexpr uint64_t kDeterministicJobId = 0xDE7E12317AC0DE5ULL;

struct DeterministicOptions {
  /// The paper's r: reweighting rate n^{1/r}; the merge window m uses the
  /// same eps-net size formula as the randomized models (the natural
  /// like-for-like comparison point).
  int r = 2;
  EpsNetConfig net;
  /// Iteration cap; 0 = automatic (ClarksonIterationCap).
  size_t max_iterations = 0;
  /// On hitting the cap: gather everything and solve directly (Las Vegas,
  /// default) or return Status::ResourceExhausted — there is no sampling to
  /// blame, the merge schedule simply ran out of iteration budget.
  bool fallback_to_direct = true;
  /// Deliberately NO seed field: the model draws zero random bits, so there
  /// is nothing to seed. Reruns are bit-identical by construction.
  runtime::RuntimeOptions runtime;
};

struct DeterministicStats {
  size_t n = 0;
  size_t blocks = 0;
  size_t sample_size = 0;        // The merge window m.
  size_t merge_rounds = 0;       // SiteExecutor rounds run.
  size_t candidate_bytes = 0;    // Upward: serialized candidate traffic.
  size_t broadcast_bytes = 0;    // Downward: basis broadcasts to blocks.
  size_t iterations = 0;
  size_t successful_iterations = 0;
  size_t sample_bytes = 0;  // Serialized bytes of all merge samples formed.
  bool direct_solve = false;
  size_t threads = 1;
};

namespace internal {

/// Indices of the `count` heaviest items of `view`, ties broken by
/// ascending index — the block-local half of the merge. Selection is
/// serial within the block (blocks run concurrently), so it is independent
/// of thread count by construction.
template <typename C>
std::vector<size_t> TopWeightIndices(const engine::ConstraintView<C>& view,
                                     size_t count) {
  std::vector<size_t> idx(view.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const size_t keep = std::min(count, idx.size());
  auto heavier = [&](size_t a, size_t b) {
    double wa = view.weight(a), wb = view.weight(b);
    return wa > wb || (wa == wb && a < b);
  };
  std::partial_sort(idx.begin(), idx.begin() + keep, idx.end(), heavier);
  idx.resize(keep);
  return idx;
}

/// The deterministic RefinementTransport: merge-and-reduce candidate
/// selection in place of the random eps-net draw, every-iteration
/// saturating reweighting in place of the success-gated one.
template <LpTypeProblem P>
class DeterministicTransport {
 public:
  using Constraint = typename P::Constraint;
  using Value = typename P::Value;

  DeterministicTransport(const P& problem,
                         std::vector<engine::ConstraintStore<Constraint>>& blocks,
                         runtime::SiteExecutor& exec,
                         const engine::RefinementPolicy& policy,
                         DeterministicStats& stats)
      : problem_(problem),
        blocks_(blocks),
        exec_(exec),
        policy_(policy),
        st_(stats) {}

  Result<std::vector<Constraint>> NextSample() {
    const size_t b = blocks_.size();
    const size_t m = policy_.sample_size;

    // --- merge round: block-local top-min(m, |block|) selection, run
    // concurrently into per-block slots.
    std::vector<std::vector<size_t>> local(b);
    exec_.RunRound([&](size_t i) {
      local[i] = TopWeightIndices(blocks_[i].View(), m);
    });

    // --- driver-side reduce: global top-m in (weight desc, block asc,
    // index asc) order. Candidates are "shipped" to the driver, so their
    // serialized size is the model's upward communication.
    struct Candidate {
      double weight;
      size_t block;
      size_t index;
    };
    std::vector<Candidate> candidates;
    for (size_t i = 0; i < b; ++i) {
      auto view = blocks_[i].View();
      for (size_t index : local[i]) {
        candidates.push_back(Candidate{view.weight(index), i, index});
        st_.candidate_bytes +=
            problem_.ConstraintBytes(blocks_[i].items()[index]);
      }
    }
    if (candidates.empty()) {
      return Status::Internal("empty deterministic merge");
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& c) {
                if (a.weight != c.weight) return a.weight > c.weight;
                if (a.block != c.block) return a.block < c.block;
                return a.index < c.index;
              });

    // The sample always contains the previous basis: monotone f, the crux
    // of the termination argument in the header comment.
    std::vector<Constraint> sample;
    sample.reserve(carry_basis_.size() + std::min(m, candidates.size()));
    for (const auto& c : carry_basis_) sample.push_back(c);
    for (size_t s = 0; s < candidates.size() && s < m; ++s) {
      sample.push_back(blocks_[candidates[s].block].items()[candidates[s].index]);
    }
    return sample;
  }

  engine::ViolatorScan ScanViolators(
      const BasisResult<Value, Constraint>& basis) {
    const size_t b = blocks_.size();
    // The basis is broadcast to every block for the scan (and reused by the
    // reweight round, like the coordinator's R3 value cache).
    st_.broadcast_bytes += b * BasisBytes(basis.basis);
    std::vector<double> total(b, 0), violating(b, 0);
    std::vector<uint64_t> counts(b, 0);
    exec_.RunRound([&](size_t i) {
      auto view = blocks_[i].View();
      total[i] = view.TotalWeight();
      engine::ViolatorStats local =
          view.ScanViolators(problem_, basis.value, policy_.pool);
      violating[i] = local.weight;
      counts[i] = local.count;
    });
    // Accumulate in block order: floating-point summation order is part of
    // the determinism guarantee.
    engine::ViolatorScan scan;
    for (size_t i = 0; i < b; ++i) {
      scan.total_weight += total[i];
      scan.violator_weight += violating[i];
      scan.violator_count += counts[i];
    }
    return scan;
  }

  void EndIteration(bool /*success*/, const BasisResult<Value, Constraint>& basis) {
    // Deterministic-reweighting discipline: every non-terminal iteration
    // reweights its violators, success or not — the eps-net success test is
    // telemetry here, not a gate. Progress during an f stall comes exactly
    // from this unconditional update (header comment).
    carry_basis_ = basis.basis;
    // Same value as the scan above, so the fused path reuses each block's
    // scan bitmap (identical weights either way).
    exec_.RunRound([&](size_t i) {
      blocks_[i].View().ScaleViolatorsFused(problem_, basis.value,
                                            policy_.rate,
                                            policy_.pool,
                                            kDeterministicWeightCeiling);
    });
  }

  void OnTerminal() {}

  /// Las Vegas fallback: every block ships everything (counted as candidate
  /// traffic), merged in block order.
  std::vector<Constraint> GatherAll() {
    std::vector<Constraint> all;
    for (auto& block : blocks_) {
      for (const auto& c : block.items()) {
        st_.candidate_bytes += problem_.ConstraintBytes(c);
        all.push_back(c);
      }
    }
    return all;
  }

  Status IterationCapStatus() {
    st_.merge_rounds = exec_.rounds_run();
    return Status::ResourceExhausted("deterministic iteration cap reached");
  }

  Result<BasisResult<Value, Constraint>> Finish(
      BasisResult<Value, Constraint> result) {
    st_.merge_rounds = exec_.rounds_run();
    auto& metrics = runtime::MetricsRegistry::Global();
    metrics.GetCounter("deterministic.iterations")->Increment(st_.iterations);
    metrics.GetCounter("deterministic.candidate_bytes")
        ->Increment(st_.candidate_bytes);
    return result;
  }

 private:
  size_t BasisBytes(const std::vector<Constraint>& basis) {
    size_t total = 0;
    for (const auto& c : basis) total += problem_.ConstraintBytes(c);
    return total;
  }

  const P& problem_;
  std::vector<engine::ConstraintStore<Constraint>>& blocks_;
  runtime::SiteExecutor& exec_;
  const engine::RefinementPolicy& policy_;
  DeterministicStats& st_;
  // Previous iteration's basis, carried into the next sample.
  std::vector<Constraint> carry_basis_;
};

}  // namespace internal

template <LpTypeProblem P>
Result<BasisResult<typename P::Value, typename P::Constraint>>
SolveDeterministic(const P& problem,
                   std::vector<std::vector<typename P::Constraint>> partitions,
                   const DeterministicOptions& options,
                   DeterministicStats* stats) {
  using Constraint = typename P::Constraint;
  DeterministicStats local;
  DeterministicStats& st = stats ? *stats : local;
  st = DeterministicStats{};

  const size_t b = partitions.size();
  if (b == 0) return Status::InvalidArgument("no blocks");
  size_t n = 0;
  for (const auto& part : partitions) n += part.size();
  if (n == 0) return Status::InvalidArgument("empty input");
  st.n = n;
  st.blocks = b;
  const size_t nu = problem.CombinatorialDimension();

  std::unique_ptr<runtime::ThreadPool> owned_pool;
  runtime::ThreadPool* pool = runtime::ResolvePool(options.runtime, &owned_pool);
  runtime::SiteExecutor exec(pool, b);
  st.threads = exec.threads();

  auto& metrics = runtime::MetricsRegistry::Global();
  metrics.GetCounter("deterministic.solves")->Increment();
  runtime::ScopedTimer solve_timer(
      metrics.GetTimer("deterministic.solve_seconds"));

  engine::RefinementPolicy policy =
      engine::MakePolicy(problem, n, options.r, options.net);
  policy.max_iterations = options.max_iterations
                              ? options.max_iterations
                              : ClarksonIterationCap(nu, options.r);
  policy.fallback_to_direct = options.fallback_to_direct;
  policy.name = "SolveDeterministic";
  policy.pool = pool;
  engine::ApplyRuntimeOptions(policy, options.runtime, kDeterministicJobId);
  st.sample_size = policy.sample_size;

  std::vector<engine::ConstraintStore<Constraint>> blocks;
  blocks.reserve(b);
  for (auto& part : partitions) {
    blocks.emplace_back(std::move(part));
  }

  internal::DeterministicTransport<P> transport(problem, blocks, exec, policy,
                                                st);

  if (n <= policy.sample_size || n <= nu + 1) {
    // The merge window covers the input: one gather, one solve.
    st.direct_solve = true;
    auto all = transport.GatherAll();
    return transport.Finish(
        engine::SolveSampleBasis(problem, all, policy, /*solve_seq=*/0));
  }

  engine::IterationCounters counters{&st.iterations,
                                     &st.successful_iterations,
                                     &st.direct_solve, &st.sample_bytes};
  return engine::RunRefinement(problem, transport, policy, counters);
}

}  // namespace det
}  // namespace lplow

#endif  // LPLOW_MODELS_DETERMINISTIC_DETERMINISTIC_SOLVER_H_
