// Theorem 2: the coordinator-model implementation of Algorithm 1, with the
// Lemma 3.7 two-round weighted-sampling protocol.
//
// The iteration scheme itself (sample -> basis -> violator scan ->
// reweight, the eps-net success test, the iteration-cap fallback) lives in
// the shared engine (src/engine/refinement.h); this file is the
// coordinator *transport*: how each step crosses the wire. Each site keeps
// its local constraints and weights in an engine::ConstraintStore; the
// coordinator never materializes the input. One iteration of Algorithm 1
// costs three rounds:
//
//   R1 (weights):  coordinator asks for local totals; site i replies w(S_i)
//                  — and first applies the previous iteration's reweighting
//                  decision, which rides along in the request.
//   R2 (sample):   coordinator draws the multinomial split y_1..y_k of the m
//                  eps-net draws (Lemma 3.7) and requests y_i samples from
//                  site i; sites reply with serialized constraints.
//   R3 (violators): coordinator broadcasts the basis; site i replies its
//                  violator weight w(V_i) and count.
//
// All traffic is serialized through coord::Channel, so reported
// communication is byte-exact.
//
// Concurrency: with CoordinatorOptions::runtime.num_threads > 1 the k sites
// of each round run in parallel on a runtime::ThreadPool (the protocol's
// sites are independent between barriers), per-site reply *parsing* runs
// inside the same round, and site-local violator scans fan the SIMD kernel
// out over the same pool once a site holds kParallelScanMinItems
// constraints. Oversized sample bases are solved inline on the driver
// thread, or through RuntimeOptions::solver_backend when one is set. Each
// site owns its RNG stream (Rng::ForkStream(site_id)) and per-site reply
// slot, replies are merged in site order at the round barrier, and Channel
// accounting is order-independent — so bases, byte counts, and round
// counts are bit-identical for every thread count.

#ifndef LPLOW_MODELS_COORDINATOR_COORDINATOR_SOLVER_H_
#define LPLOW_MODELS_COORDINATOR_COORDINATOR_SOLVER_H_

#include <cmath>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/clarkson.h"
#include "src/core/eps_net.h"
#include "src/core/lp_type.h"
#include "src/core/sampling.h"
#include "src/engine/constraint_store.h"
#include "src/engine/refinement.h"
#include "src/models/coordinator/channel.h"
#include "src/runtime/metrics.h"
#include "src/runtime/site_executor.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace lplow {
namespace coord {

struct CoordinatorOptions {
  int r = 2;
  EpsNetConfig net;
  size_t max_iterations = 0;  // 0 = automatic.
  /// On hitting the iteration cap: ship everything and solve directly
  /// (Las Vegas, default) or return Status::SamplingFailed (useful for
  /// measuring pure protocol cost under a fixed iteration budget).
  bool fallback_to_direct = true;
  uint64_t seed = 0xC004D1ACULL;
  /// Concurrent site emulation; the default is the serial reference path.
  /// Results are bit-identical for every thread count.
  runtime::RuntimeOptions runtime;
};

struct CoordinatorStats {
  size_t n = 0;
  size_t k = 0;
  size_t sample_size = 0;
  size_t rounds = 0;
  size_t total_bytes = 0;
  size_t messages = 0;
  size_t iterations = 0;
  size_t successful_iterations = 0;
  size_t sample_bytes = 0;  // Serialized bytes of all eps-net samples drawn.
  bool direct_solve = false;
  size_t threads = 1;
};

/// One site: holds its constraint partition and local weights in an
/// engine::ConstraintStore, and answers the three request kinds. Site logic
/// only sees serialized messages.
template <LpTypeProblem P>
class Site {
 public:
  Site(const P* problem, std::vector<typename P::Constraint> constraints,
       Rng rng, runtime::ThreadPool* pool)
      : problem_(problem),
        store_(std::move(constraints)),
        rng_(std::move(rng)),
        pool_(pool) {}

  /// R1: apply the previous reweighting decision (if any), reply total weight.
  /// The reweight is against the basis the site just scanned in R3, so the
  /// fused path reuses that scan's bitmap instead of re-testing every
  /// constraint (identical weights either way).
  Message HandleWeightRequest(const Message& request) {
    BitReader r(request);
    uint8_t apply = *r.GetU8();
    if (apply) {
      double rate = *r.GetDouble();
      auto basis_value = DeserializeValueMarker(&r);
      store_.View().ScaleViolatorsFused(*problem_, basis_value, rate, pool_);
    }
    BitWriter w;
    w.PutDouble(store_.View().TotalWeight());
    return w.Release();
  }

  /// R2: reply `count` weighted draws (with replacement) from the local set.
  Message HandleSampleRequest(const Message& request) {
    BitReader r(request);
    uint64_t count = *r.GetVarU64();
    BitWriter w;
    w.PutVarU64(count);
    for (size_t idx :
         store_.View().SampleIndices(static_cast<size_t>(count), &rng_)) {
      problem_->SerializeConstraint(store_.items()[idx], &w);
    }
    return w.Release();
  }

  /// R3: reply (violator weight, violator count) against the basis encoded
  /// in the request; remember the basis value for the R1 reweighting.
  Message HandleViolatorRequest(const Message& request) {
    BitReader r(request);
    last_basis_value_ = DeserializeValueMarker(&r);
    engine::ViolatorStats stats =
        store_.View().ScanViolators(*problem_, last_basis_value_, pool_);
    BitWriter w;
    w.PutDouble(stats.weight);
    w.PutVarU64(stats.count);
    return w.Release();
  }

  size_t local_size() const { return store_.size(); }
  const std::vector<typename P::Constraint>& constraints() const {
    return store_.items();
  }

  /// The basis value travels as the basis constraints; the site re-solves the
  /// tiny basis locally to recover f(B) (O(nu) constraints, negligible work,
  /// zero extra communication).
  typename P::Value DeserializeValueMarker(BitReader* r) {
    uint64_t size = *r->GetVarU64();
    std::vector<typename P::Constraint> basis;
    basis.reserve(size);
    for (uint64_t i = 0; i < size; ++i) {
      auto c = problem_->DeserializeConstraint(r);
      LPLOW_CHECK(c.ok());
      basis.push_back(std::move(*c));
    }
    return problem_->SolveValue(
        std::span<const typename P::Constraint>(basis));
  }

 private:
  const P* problem_;
  engine::ConstraintStore<typename P::Constraint> store_;
  Rng rng_;
  runtime::ThreadPool* pool_;
  typename P::Value last_basis_value_{};
};

namespace internal {

/// The coordinator-model RefinementTransport: R1+R2 produce the sample,
/// R3 is the violator scan, reweighting is deferred into the next R1.
template <LpTypeProblem P>
class CoordinatorTransport {
 public:
  using Constraint = typename P::Constraint;
  using Value = typename P::Value;

  CoordinatorTransport(const P& problem, std::vector<Site<P>>& sites,
                       Channel& channel, runtime::SiteExecutor& exec,
                       Rng& rng, const engine::RefinementPolicy& policy,
                       CoordinatorStats& stats)
      : problem_(problem),
        sites_(sites),
        ch_(channel),
        exec_(exec),
        rng_(rng),
        policy_(policy),
        st_(stats),
        site_weights_(sites.size()) {}

  Result<std::vector<Constraint>> NextSample() {
    const size_t k = sites_.size();

    // ---- R1: weights (plus deferred reweighting instruction). Sites run
    // concurrently; replies land in per-site slots and are parsed in site
    // order after the barrier.
    ch_.BeginRound();
    {
      BitWriter req;
      req.PutU8(pending_update_ ? 1 : 0);
      if (pending_update_) {
        req.PutDouble(policy_.rate);
        Message basis_msg = SerializeBasis(pending_basis_);
        req.PutBytes(basis_msg.data(), basis_msg.size());
      }
      Message request = req.Release();
      std::vector<Message> replies(k);
      exec_.RunRound([&](size_t i) {
        ch_.ToSite(i, request);
        replies[i] = sites_[i].HandleWeightRequest(request);
        ch_.ToCoordinator(i, replies[i]);
      });
      for (size_t i = 0; i < k; ++i) {
        BitReader r(replies[i]);
        site_weights_[i] = *r.GetDouble();
      }
      pending_update_ = false;
    }

    // ---- R2: the Lemma 3.7 multinomial split and local sampling. The
    // split is drawn on the coordinator (fixed RNG order); sites sample
    // from their own RNG streams and their replies are *parsed* inside the
    // round too (per-site slots, pure decoding), then merged in site order
    // so the pooled sample is thread-count-invariant.
    ch_.BeginRound();
    std::vector<Constraint> sample;
    sample.reserve(policy_.sample_size);
    {
      std::vector<size_t> counts =
          MultinomialSplit(site_weights_, policy_.sample_size, &rng_);
      std::vector<std::vector<Constraint>> parsed(k);
      exec_.RunRound([&](size_t i) {
        if (counts[i] == 0) return;
        BitWriter req;
        req.PutVarU64(counts[i]);
        Message request = req.Release();
        ch_.ToSite(i, request);
        Message reply = sites_[i].HandleSampleRequest(request);
        ch_.ToCoordinator(i, reply);
        BitReader r(reply);
        uint64_t cnt = *r.GetVarU64();
        parsed[i].reserve(cnt);
        for (uint64_t s = 0; s < cnt; ++s) {
          auto c = problem_.DeserializeConstraint(&r);
          LPLOW_CHECK(c.ok());
          parsed[i].push_back(std::move(*c));
        }
      });
      for (auto& site_sample : parsed) {
        for (auto& c : site_sample) sample.push_back(std::move(c));
      }
    }
    if (sample.empty()) return Status::Internal("empty coordinator sample");
    return sample;
  }

  engine::ViolatorScan ScanViolators(
      const BasisResult<Value, Constraint>& basis) {
    const size_t k = sites_.size();
    ch_.BeginRound();
    engine::ViolatorScan scan;
    for (double w : site_weights_) scan.total_weight += w;
    Message request = SerializeBasis(basis.basis);
    std::vector<Message> replies(k);
    exec_.RunRound([&](size_t i) {
      ch_.ToSite(i, request);
      replies[i] = sites_[i].HandleViolatorRequest(request);
      ch_.ToCoordinator(i, replies[i]);
    });
    // Accumulate in site order: floating-point summation order is part of
    // the determinism guarantee.
    for (size_t i = 0; i < k; ++i) {
      BitReader r(replies[i]);
      scan.violator_weight += *r.GetDouble();
      scan.violator_count += *r.GetVarU64();
    }
    return scan;
  }

  void EndIteration(bool success, const BasisResult<Value, Constraint>& basis) {
    if (success) {
      pending_update_ = true;
      pending_basis_ = basis.basis;
    }
  }

  void OnTerminal() {}

  /// Las Vegas fallback: ship everything (counted!). Serialization runs
  /// per-site on the pool; the gathered set merges in site order.
  std::vector<Constraint> GatherAll() {
    const size_t k = sites_.size();
    ch_.BeginRound();
    std::vector<Constraint> all;
    std::vector<std::vector<Constraint>> shipped(k);
    exec_.RunRound([&](size_t i) {
      BitWriter w;
      for (const auto& c : sites_[i].constraints()) {
        problem_.SerializeConstraint(c, &w);
        shipped[i].push_back(c);
      }
      ch_.ToCoordinator(i, w.buffer());
    });
    for (auto& site_constraints : shipped) {
      for (auto& c : site_constraints) all.push_back(std::move(c));
    }
    return all;
  }

  Status IterationCapStatus() {
    FlushChannelStats();
    return Status::SamplingFailed("coordinator iteration cap reached");
  }

  Result<BasisResult<Value, Constraint>> Finish(
      BasisResult<Value, Constraint> result) {
    FlushChannelStats();
    auto& metrics = runtime::MetricsRegistry::Global();
    metrics.GetCounter("coordinator.rounds")->Increment(st_.rounds);
    metrics.GetCounter("coordinator.bytes")->Increment(st_.total_bytes);
    metrics.GetCounter("coordinator.iterations")->Increment(st_.iterations);
    return result;
  }

 private:
  Message SerializeBasis(const std::vector<Constraint>& basis) {
    BitWriter w;
    w.PutVarU64(basis.size());
    for (const auto& c : basis) problem_.SerializeConstraint(c, &w);
    return w.Release();
  }

  void FlushChannelStats() {
    st_.rounds = ch_.rounds();
    st_.total_bytes = ch_.total_bytes();
    st_.messages = ch_.messages();
  }

  const P& problem_;
  std::vector<Site<P>>& sites_;
  Channel& ch_;
  runtime::SiteExecutor& exec_;
  Rng& rng_;
  const engine::RefinementPolicy& policy_;
  CoordinatorStats& st_;
  std::vector<double> site_weights_;
  // Previous iteration's reweighting decision, delivered with the next R1.
  bool pending_update_ = false;
  std::vector<Constraint> pending_basis_;
};

}  // namespace internal

template <LpTypeProblem P>
Result<BasisResult<typename P::Value, typename P::Constraint>>
SolveCoordinator(const P& problem,
                 std::vector<std::vector<typename P::Constraint>> partitions,
                 const CoordinatorOptions& options, CoordinatorStats* stats,
                 Channel* channel_out = nullptr) {
  CoordinatorStats local;
  CoordinatorStats& st = stats ? *stats : local;
  st = CoordinatorStats{};

  const size_t k = partitions.size();
  if (k == 0) return Status::InvalidArgument("no sites");
  size_t n = 0;
  for (const auto& part : partitions) n += part.size();
  st.n = n;
  st.k = k;

  Rng rng(options.seed);
  Channel local_channel(k);
  Channel& ch = channel_out ? *channel_out : local_channel;

  std::unique_ptr<runtime::ThreadPool> owned_pool;
  runtime::ThreadPool* pool = runtime::ResolvePool(options.runtime, &owned_pool);
  runtime::SiteExecutor exec(pool, k);
  st.threads = exec.threads();

  auto& metrics = runtime::MetricsRegistry::Global();
  metrics.GetCounter("coordinator.solves")->Increment();
  runtime::ScopedTimer solve_timer(
      metrics.GetTimer("coordinator.solve_seconds"));

  const size_t nu = problem.CombinatorialDimension();
  engine::RefinementPolicy policy =
      engine::MakePolicy(problem, n, options.r, options.net);
  policy.max_iterations = options.max_iterations
                              ? options.max_iterations
                              : ClarksonIterationCap(nu, options.r);
  policy.fallback_to_direct = options.fallback_to_direct;
  policy.name = "SolveCoordinator";
  policy.pool = pool;
  engine::ApplyRuntimeOptions(policy, options.runtime, options.seed);
  st.sample_size = policy.sample_size;

  std::vector<Site<P>> sites;
  sites.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    sites.emplace_back(&problem, std::move(partitions[i]), rng.ForkStream(i),
                       policy.pool);
  }

  internal::CoordinatorTransport<P> transport(problem, sites, ch, exec, rng,
                                              policy, st);
  engine::IterationCounters counters{&st.iterations,
                                     &st.successful_iterations,
                                     &st.direct_solve, &st.sample_bytes};
  return engine::RunRefinement(problem, transport, policy, counters);
}

}  // namespace coord
}  // namespace lplow

#endif  // LPLOW_MODELS_COORDINATOR_COORDINATOR_SOLVER_H_
