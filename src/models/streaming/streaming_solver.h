// Theorem 1: the multi-pass streaming implementation of Algorithm 1.
//
// The iteration scheme (sample -> basis -> violator scan -> reweight, the
// eps-net success test, the iteration-cap fallback) lives in the shared
// engine (src/engine/refinement.h); this file is the streaming *transport*:
// the stream is scanned one pass per iteration (pipelined — see below), the
// weight of a constraint is never stored: it is recomputed on the fly as
// rate^{a}, where a counts the stored successful-iteration bases the
// constraint violates (exactly the proof of Theorem 1), and the eps-net is
// drawn with a one-pass with-replacement weighted reservoir (Chao [14]
// aggregate, src/core/sampling.h).
//
// Pipelining: iteration t's violator scan (against basis B_t) and iteration
// t+1's sample pass are fused into one pass. While B_t's success is unknown
// until the pass ends, both candidate weight functions — with and without
// B_t counted — are available on the fly, so the pass fills two reservoirs
// and keeps the right one afterwards. This gives 1 pass per iteration plus
// the initial sampling pass, matching the paper's O(nu * r) pass bound; a
// simpler 2-passes-per-iteration mode is available for comparison.
//
// Concurrency: none. The pass is inherently sequential (the reservoir
// consumes RNG draws in stream order) and the engine solves sample bases
// inline, so StreamingOptions::runtime's thread settings have no effect;
// its solve backend still receives the oversized sample bases.

#ifndef LPLOW_MODELS_STREAMING_STREAMING_SOLVER_H_
#define LPLOW_MODELS_STREAMING_STREAMING_SOLVER_H_

#include <cmath>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/core/clarkson.h"
#include "src/core/eps_net.h"
#include "src/core/lp_type.h"
#include "src/core/sampling.h"
#include "src/engine/refinement.h"
#include "src/models/streaming/stream.h"
#include "src/runtime/metrics.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace lplow {
namespace stream {

struct StreamingOptions {
  int r = 2;
  EpsNetConfig net;
  /// Fuse violation scan and next sample into one pass (paper-faithful).
  bool pipeline = true;
  /// Ablation hooks (experiment E13); 0 = paper values.
  double weight_rate_override = 0;
  double eps_override = 0;
  size_t sample_size_override = 0;
  /// Iteration cap; 0 = automatic (ClarksonIterationCap).
  size_t max_iterations = 0;
  uint64_t seed = 0x57AE4131ULL;
  /// Engine dispatch knobs (solve backend, oversized threshold, trace);
  /// the thread settings are ignored. Results are bit-identical for every
  /// setting.
  runtime::RuntimeOptions runtime;
};

struct StreamingStats {
  size_t n = 0;
  size_t sample_size = 0;
  size_t passes = 0;
  size_t iterations = 0;
  size_t successful_iterations = 0;
  size_t bases_stored = 0;
  size_t peak_items = 0;   // Peak constraints held simultaneously.
  size_t peak_bytes = 0;   // Their serialized size.
  size_t violation_tests = 0;
  size_t sample_bytes = 0;  // Serialized bytes of all eps-net samples drawn.
  bool direct_solve = false;
};

namespace internal {

/// Weight of a constraint under the stored-bases weight function:
/// rate^{#bases violated}. Exponents are capped well below double overflow.
template <LpTypeProblem P>
double OnTheFlyWeight(const P& problem,
                      const std::vector<typename P::Value>& basis_values,
                      const typename P::Constraint& c, double rate,
                      size_t* violation_tests) {
  double w = 1.0;
  for (const auto& v : basis_values) {
    ++*violation_tests;
    if (problem.Violates(v, c)) w *= rate;
  }
  return w;
}

/// The streaming RefinementTransport: the sample for iteration t+1 is drawn
/// by the (optionally pipelined) pass that also scans iteration t's
/// violators; per-item weights are recomputed on the fly from the stored
/// successful bases.
template <LpTypeProblem P>
class StreamingTransport {
 public:
  using Constraint = typename P::Constraint;
  using Value = typename P::Value;

  StreamingTransport(const P& problem, ConstraintStream<Constraint>& input,
                     bool pipeline, Rng& rng, SpaceMeter& space,
                     const engine::RefinementPolicy& policy,
                     StreamingStats& stats)
      : problem_(problem),
        input_(input),
        pipeline_(pipeline),
        rng_(rng),
        space_(space),
        policy_(policy),
        st_(stats),
        base_passes_(input.passes_started()) {}

  Result<std::vector<Constraint>> NextSample() {
    const size_t m = policy_.sample_size;
    if (!initial_pass_done_) {
      // --- initial sampling pass (uniform weights; no bases yet).
      initial_pass_done_ = true;
      MultiChaoReservoir<Constraint> res(m, &rng_);
      input_.Reset();
      while (auto c = input_.Next()) res.Offer(*c, 1.0);
      if (res.empty()) return Status::InvalidArgument("empty stream");
      next_sample_ = res.Samples();
      sample_mem_ = 0;
      for (const auto& c : next_sample_) {
        sample_mem_ += problem_.ConstraintBytes(c);
      }
      space_.Acquire(next_sample_.size(), sample_mem_);
    }
    return std::move(next_sample_);
  }

  engine::ViolatorScan ScanViolators(
      const BasisResult<Value, Constraint>& basis) {
    const size_t m = policy_.sample_size;
    space_.Acquire(basis.basis.size(), BasisBytes(basis.basis));

    // --- violator scan against basis.value fused (optionally) with the
    // next iteration's sampling: two candidate reservoirs, one per outcome
    // of the not-yet-known success test.
    engine::ViolatorScan scan;
    res_no_.emplace(m, &rng_);   // B_t unsuccessful.
    res_yes_.emplace(m, &rng_);  // B_t successful.
    if (pipeline_) {
      space_.Acquire(2 * m, 2 * sample_mem_);  // Two candidate reservoirs.
    } else {
      space_.Acquire(m, sample_mem_);
    }
    input_.Reset();
    while (auto c = input_.Next()) {
      double w = OnTheFlyWeight(problem_, basis_values_, *c, policy_.rate,
                                &st_.violation_tests);
      scan.total_weight += w;
      ++st_.violation_tests;
      bool violates = problem_.Violates(basis.value, *c);
      if (violates) {
        scan.violator_weight += w;
        ++scan.violator_count;
      }
      if (pipeline_) {
        res_no_->Offer(*c, w);
        res_yes_->Offer(*c, violates ? w * policy_.rate : w);
      }
    }
    return scan;
  }

  void OnTerminal() {
    const size_t m = policy_.sample_size;
    space_.Release(pipeline_ ? 2 * m : m, 0);
    res_no_.reset();
    res_yes_.reset();
  }

  void EndIteration(bool success, const BasisResult<Value, Constraint>& basis) {
    const size_t m = policy_.sample_size;
    if (success) {
      basis_values_.push_back(basis.value);
      ++st_.bases_stored;
      // Basis stays resident (accounted at Acquire above).
    } else {
      space_.Release(basis.basis.size(), BasisBytes(basis.basis));
    }

    if (pipeline_) {
      next_sample_ = success ? res_yes_->Samples() : res_no_->Samples();
      space_.Release(2 * m, 2 * sample_mem_);  // Candidates collapse into one.
    } else {
      // Separate sampling pass under the updated weight function.
      MultiChaoReservoir<Constraint> res(m, &rng_);
      input_.Reset();
      while (auto c = input_.Next()) {
        double w = OnTheFlyWeight(problem_, basis_values_, *c, policy_.rate,
                                  &st_.violation_tests);
        res.Offer(*c, w);
      }
      next_sample_ = res.Samples();
      space_.Release(m, sample_mem_);
    }
    res_no_.reset();
    res_yes_.reset();
    sample_mem_ = 0;
    for (const auto& c : next_sample_) {
      sample_mem_ += problem_.ConstraintBytes(c);
    }
  }

  /// Las Vegas fallback (effectively unreachable with sane sample sizes):
  /// read the stream whole.
  std::vector<Constraint> GatherAll() {
    input_.Reset();
    std::vector<Constraint> all;
    all.reserve(st_.n);
    while (auto c = input_.Next()) all.push_back(std::move(*c));
    space_.Acquire(all.size(), 0);
    return all;
  }

  Status IterationCapStatus() {
    // Unreachable today (StreamingOptions has no fallback_to_direct
    // switch), but keep the pass/space accounting intact for when one
    // arrives.
    st_.passes = input_.passes_started() - base_passes_;
    st_.peak_items = space_.peak_items();
    st_.peak_bytes = space_.peak_bytes();
    return Status::Internal("streaming iteration cap reached");
  }

  Result<BasisResult<Value, Constraint>> Finish(
      BasisResult<Value, Constraint> result) {
    st_.passes = input_.passes_started() - base_passes_;
    st_.peak_items = space_.peak_items();
    st_.peak_bytes = space_.peak_bytes();
    auto& metrics = runtime::MetricsRegistry::Global();
    metrics.GetCounter("streaming.passes")->Increment(st_.passes);
    metrics.GetCounter("streaming.iterations")->Increment(st_.iterations);
    return result;
  }

 private:
  size_t BasisBytes(const std::vector<Constraint>& b) {
    size_t total = 0;
    for (const auto& c : b) total += problem_.ConstraintBytes(c);
    return total;
  }

  const P& problem_;
  ConstraintStream<Constraint>& input_;
  bool pipeline_;
  Rng& rng_;
  SpaceMeter& space_;
  const engine::RefinementPolicy& policy_;
  StreamingStats& st_;
  size_t base_passes_;
  bool initial_pass_done_ = false;
  std::vector<Constraint> next_sample_;
  size_t sample_mem_ = 0;
  // Stored successful-basis values (the weight function of the proof of
  // Theorem 1).
  std::vector<Value> basis_values_;
  std::optional<MultiChaoReservoir<Constraint>> res_no_;
  std::optional<MultiChaoReservoir<Constraint>> res_yes_;
};

}  // namespace internal

template <LpTypeProblem P>
Result<BasisResult<typename P::Value, typename P::Constraint>> SolveStreaming(
    const P& problem, ConstraintStream<typename P::Constraint>& input,
    const StreamingOptions& options, StreamingStats* stats) {
  using Constraint = typename P::Constraint;
  StreamingStats local;
  StreamingStats& st = stats ? *stats : local;
  st = StreamingStats{};

  const size_t n = input.size();
  st.n = n;
  const size_t nu = problem.CombinatorialDimension();

  SpaceMeter space;
  Rng rng(options.seed);

  auto& metrics = runtime::MetricsRegistry::Global();
  metrics.GetCounter("streaming.solves")->Increment();
  runtime::ScopedTimer solve_timer(
      metrics.GetTimer("streaming.solve_seconds"));

  engine::RefinementPolicy policy = engine::MakePolicy(
      problem, n, options.r, options.net, options.eps_override,
      options.weight_rate_override, options.sample_size_override);
  policy.max_iterations = options.max_iterations
                              ? options.max_iterations
                              : ClarksonIterationCap(nu, options.r);
  policy.name = "SolveStreaming";
  engine::ApplyRuntimeOptions(policy, options.runtime, options.seed);
  st.sample_size = policy.sample_size;

  internal::StreamingTransport<P> transport(problem, input, options.pipeline,
                                            rng, space, policy, st);

  if (n <= policy.sample_size || n <= nu + 1) {
    // Sample budget covers the stream: read it whole in one pass.
    st.direct_solve = true;
    input.Reset();
    std::vector<Constraint> all;
    all.reserve(n);
    size_t bytes = 0;
    while (auto c = input.Next()) {
      bytes += problem.ConstraintBytes(*c);
      all.push_back(std::move(*c));
    }
    space.Acquire(all.size(), bytes);
    return transport.Finish(problem.SolveBasis(
        std::span<const Constraint>(all)));
  }

  engine::IterationCounters counters{&st.iterations,
                                     &st.successful_iterations,
                                     &st.direct_solve, &st.sample_bytes};
  return engine::RunRefinement(problem, transport, policy, counters);
}

}  // namespace stream
}  // namespace lplow

#endif  // LPLOW_MODELS_STREAMING_STREAMING_SOLVER_H_
