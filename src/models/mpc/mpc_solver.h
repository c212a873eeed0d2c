// Theorem 3: the MPC implementation of Algorithm 1.
//
// The iteration scheme (sample -> basis -> violator scan -> reweight, the
// eps-net success test, the Las Vegas fallback) lives in the shared engine
// (src/engine/refinement.h); this file is the MPC *transport*: machines
// hold the partitioned input plus local weights in engine::ConstraintStore
// and each Algorithm 1 step is simulated with tree-structured communication
// so no machine ever handles more than O~(lambda n^delta nu^2) bytes in a
// round:
//
//   1. converge-cast: subtree weight totals flow leaf->root   (depth rounds)
//   2. root draws the m-way multinomial split; per-subtree counts flow
//      root->leaf down the tree                                (depth rounds)
//   3. machines send their local draws directly to the root    (1 round;
//      root receives m constraints = the permitted O~(n^delta) load)
//   4. root solves the sample basis; the basis (plus the previous
//      iteration's success bit) is broadcast down the tree     (depth rounds)
//   5. converge-cast of (violator weight, count) totals        (depth rounds)
//
// With fanout n^delta the depth is O(1/delta) and the iteration count is
// O(nu r) with r = 1/delta, giving the O(nu/delta^2) rounds of Theorem 3.
//
// Concurrency: with MpcOptions::runtime.num_threads > 1 the per-machine
// phases of each round (reweighting, local totals, local draws, violator
// counts) run in parallel on a runtime::ThreadPool, and per-machine
// violator scans fan the SIMD kernel out over the same pool once a machine
// holds kParallelScanMinItems constraints. The root's oversized sample
// bases are solved inline on the driver thread, or through
// RuntimeOptions::solver_backend when one is set. Each machine owns a
// forked RNG stream (Rng::ForkStream, seeded in machine order from the root
// seed) and writes to per-machine slots merged after the round barrier; the
// tree-structured communication itself stays on the driver thread in fixed
// order. Results and load accounting are bit-identical for every thread
// count.

#ifndef LPLOW_MODELS_MPC_MPC_SOLVER_H_
#define LPLOW_MODELS_MPC_MPC_SOLVER_H_

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
#include "src/models/mpc/mpc_runtime.h"
#include "src/runtime/metrics.h"
#include "src/runtime/site_executor.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace lplow {
namespace mpc {

struct MpcOptions {
  /// The paper's delta: load O~(n^delta), rounds O(nu/delta^2). The weight
  /// rate uses r = round(1/delta).
  double delta = 0.5;
  EpsNetConfig net;
  /// Machine count; 0 = automatic ceil(n^{1-delta}).
  size_t machines = 0;
  size_t max_iterations = 0;
  uint64_t seed = 0x3BCC0DEULL;
  /// Concurrent machine emulation; the default is the serial reference
  /// path. Results are bit-identical for every thread count.
  runtime::RuntimeOptions runtime;
};

struct MpcStats {
  size_t n = 0;
  size_t machines = 0;
  size_t fanout = 0;
  size_t tree_depth = 0;
  size_t sample_size = 0;
  size_t rounds = 0;
  size_t max_load_bytes = 0;
  size_t total_bytes = 0;
  size_t iterations = 0;
  size_t successful_iterations = 0;
  size_t sample_bytes = 0;  // Serialized bytes of all eps-net samples drawn.
  bool direct_solve = false;
  size_t threads = 1;
};

namespace internal {

/// Per-machine state.
template <LpTypeProblem P>
struct Machine {
  engine::ConstraintStore<typename P::Constraint> store;
  double subtree_weight = 0;  // Filled by the converge-cast.
  Rng rng;  // Per-machine stream: local draws are thread-count-invariant.
};

/// The MPC RefinementTransport: converge-cast weights, split the sample
/// down the tree, draw at the machines, scan violators with a broadcast +
/// converge-cast; reweighting is applied on the next success broadcast.
template <LpTypeProblem P>
class MpcTransport {
 public:
  using Constraint = typename P::Constraint;
  using Value = typename P::Value;

  MpcTransport(const P& problem, std::vector<Machine<P>>& mach,
               MpcRuntime& rt, runtime::SiteExecutor& exec, Rng& rng,
               const engine::RefinementPolicy& policy, MpcStats& stats)
      : problem_(problem),
        mach_(mach),
        rt_(rt),
        exec_(exec),
        rng_(rng),
        policy_(policy),
        st_(stats) {}

  Result<std::vector<Constraint>> NextSample() {
    const size_t machines = mach_.size();
    const size_t m = policy_.sample_size;

    // ---- (0/4 of previous iteration) broadcast basis + success decision
    // down the tree; machines apply the reweighting locally.
    if (pending_update_) {
      size_t bytes = BasisMsgBytes(pending_basis_);
      for (size_t d = 0; d < std::max<size_t>(st_.tree_depth, 1); ++d) {
        rt_.BeginRound();
        for (size_t i : rt_.MachinesAtDepth(d)) {
          for (size_t c : rt_.Children(i)) rt_.Send(i, c, bytes);
        }
        rt_.EndRound();
        if (st_.tree_depth == 0) break;
      }
      // Reweight against exactly the value each machine just scanned, so
      // the fused path reuses the scan bitmap (identical weights either
      // way).
      exec_.RunRound([&](size_t i) {
        mach_[i].store.View().ScaleViolatorsFused(
            problem_, pending_value_, policy_.rate, policy_.pool);
      });
      pending_update_ = false;
    }

    // ---- (1) weight converge-cast.
    total_weight_ = AggregateWeights();
    if (total_weight_ <= 0) return Status::Internal("zero total weight");

    // ---- (2) multinomial split down the tree. Each machine receives its
    // subtree's count from its parent and splits it among itself and its
    // children's subtrees.
    std::vector<size_t> draw(machines, 0);
    {
      std::vector<size_t> subtree_count(machines, 0);
      subtree_count[0] = m;
      for (size_t d = 0; d < std::max<size_t>(st_.tree_depth + 1, 1); ++d) {
        bool is_split_round = d < st_.tree_depth;
        if (is_split_round) rt_.BeginRound();
        for (size_t i : rt_.MachinesAtDepth(d)) {
          auto children = rt_.Children(i);
          // Weights: own items, then each child's subtree.
          std::vector<double> parts;
          parts.push_back(mach_[i].store.View().TotalWeight());
          for (size_t c : children) parts.push_back(mach_[c].subtree_weight);
          std::vector<size_t> split =
              MultinomialSplit(parts, subtree_count[i], &rng_);
          draw[i] = split[0];
          for (size_t ci = 0; ci < children.size(); ++ci) {
            subtree_count[children[ci]] = split[ci + 1];
            if (is_split_round) {
              rt_.Send(i, children[ci], 8);  // The count message.
            }
          }
        }
        if (is_split_round) rt_.EndRound();
      }
    }

    // ---- (3) machines ship their draws straight to the root. Machines
    // draw concurrently from their own RNG streams (Send accounting is
    // thread-safe); the root merges the draws in machine order at the
    // barrier, so the pooled sample is thread-count-invariant.
    rt_.BeginRound();
    std::vector<Constraint> sample;
    sample.reserve(m);
    std::vector<std::vector<Constraint>> local_draws(machines);
    exec_.RunRound([&](size_t i) {
      auto& mc = mach_[i];
      if (draw[i] == 0 || mc.store.empty()) return;
      // Local exact weighted draws with replacement (prefix + binary
      // search, zero draws when the local weight is zero).
      std::vector<size_t> picks = mc.store.View().SampleIndices(draw[i], &mc.rng);
      size_t bytes = 0;
      local_draws[i].reserve(picks.size());
      for (size_t pick : picks) {
        local_draws[i].push_back(mc.store.items()[pick]);
        bytes += problem_.ConstraintBytes(mc.store.items()[pick]);
      }
      if (i != 0 && bytes > 0) rt_.Send(i, 0, bytes);
    });
    rt_.EndRound();
    for (auto& draws : local_draws) {
      for (auto& c : draws) sample.push_back(std::move(c));
    }
    if (sample.empty()) return Status::Internal("empty MPC sample");
    return sample;
  }

  engine::ViolatorScan ScanViolators(
      const BasisResult<Value, Constraint>& basis) {
    const size_t machines = mach_.size();
    // Broadcast the basis for the violator count (depth rounds), then
    // converge-cast violator totals (depth rounds).
    {
      size_t bytes = BasisMsgBytes(basis.basis);
      for (size_t d = 0; d < st_.tree_depth; ++d) {
        rt_.BeginRound();
        for (size_t i : rt_.MachinesAtDepth(d)) {
          for (size_t c : rt_.Children(i)) rt_.Send(i, c, bytes);
        }
        rt_.EndRound();
      }
    }
    std::vector<double> vw(machines, 0);
    std::vector<size_t> vc(machines, 0);
    exec_.RunRound([&](size_t i) {
      engine::ViolatorStats local = mach_[i].store.View().ScanViolators(
          problem_, basis.value, policy_.pool);
      vw[i] = local.weight;
      vc[i] = static_cast<size_t>(local.count);
    });
    for (size_t d = st_.tree_depth; d-- > 0;) {
      rt_.BeginRound();
      for (size_t i : rt_.MachinesAtDepth(d + 1)) {
        rt_.Send(i, rt_.Parent(i), 16);
        vw[rt_.Parent(i)] += vw[i];
        vc[rt_.Parent(i)] += vc[i];
      }
      rt_.EndRound();
    }
    return engine::ViolatorScan{total_weight_, vw[0],
                                static_cast<uint64_t>(vc[0])};
  }

  void EndIteration(bool success, const BasisResult<Value, Constraint>& basis) {
    if (success) {
      pending_update_ = true;
      pending_basis_ = basis.basis;
      pending_value_ = basis.value;
    }
  }

  void OnTerminal() {}

  /// Las Vegas fallback: gather everything at the root (counted).
  std::vector<Constraint> GatherAll() {
    rt_.BeginRound();
    std::vector<Constraint> all;
    all.reserve(st_.n);
    for (size_t i = 0; i < mach_.size(); ++i) {
      size_t bytes = 0;
      for (const auto& c : mach_[i].store.items()) {
        all.push_back(c);
        bytes += problem_.ConstraintBytes(c);
      }
      if (i != 0 && bytes > 0) rt_.Send(i, 0, bytes);
    }
    rt_.EndRound();
    return all;
  }

  Status IterationCapStatus() {
    // Unreachable today (MpcOptions has no fallback_to_direct switch), but
    // keep the cost accounting intact like the coordinator's cap path does.
    st_.rounds = rt_.rounds();
    st_.max_load_bytes = rt_.max_load_bytes();
    st_.total_bytes = rt_.total_bytes();
    return Status::Internal("MPC iteration cap reached");
  }

  Result<BasisResult<Value, Constraint>> Finish(
      BasisResult<Value, Constraint> result) {
    st_.rounds = rt_.rounds();
    st_.max_load_bytes = rt_.max_load_bytes();
    st_.total_bytes = rt_.total_bytes();
    auto& metrics = runtime::MetricsRegistry::Global();
    metrics.GetCounter("mpc.rounds")->Increment(st_.rounds);
    metrics.GetCounter("mpc.bytes")->Increment(st_.total_bytes);
    metrics.GetCounter("mpc.iterations")->Increment(st_.iterations);
    return result;
  }

 private:
  // Converge-cast of one double per machine: leaf-to-root, depth rounds.
  // Local totals are computed concurrently; the tree accumulation runs on
  // the driver thread in fixed order.
  double AggregateWeights() {
    exec_.RunRound([&](size_t i) {
      mach_[i].subtree_weight = mach_[i].store.View().TotalWeight();
    });
    for (size_t d = st_.tree_depth; d-- > 0;) {
      rt_.BeginRound();
      for (size_t i : rt_.MachinesAtDepth(d + 1)) {
        rt_.Send(i, rt_.Parent(i), 8);
        mach_[rt_.Parent(i)].subtree_weight += mach_[i].subtree_weight;
      }
      rt_.EndRound();
    }
    return mach_[0].subtree_weight;
  }

  size_t BasisMsgBytes(const std::vector<Constraint>& basis) {
    size_t total = 2;  // success flag + size byte (approx; exact enough).
    for (const auto& c : basis) total += problem_.ConstraintBytes(c);
    return total;
  }

  const P& problem_;
  std::vector<Machine<P>>& mach_;
  MpcRuntime& rt_;
  runtime::SiteExecutor& exec_;
  Rng& rng_;
  const engine::RefinementPolicy& policy_;
  MpcStats& st_;
  double total_weight_ = 0;
  std::vector<Constraint> pending_basis_;  // Reweighting applied on broadcast.
  bool pending_update_ = false;
  Value pending_value_{};
};

}  // namespace internal

template <LpTypeProblem P>
Result<BasisResult<typename P::Value, typename P::Constraint>> SolveMpc(
    const P& problem,
    std::vector<std::vector<typename P::Constraint>> partitions,
    const MpcOptions& options, MpcStats* stats) {
  using Constraint = typename P::Constraint;
  MpcStats local;
  MpcStats& st = stats ? *stats : local;
  st = MpcStats{};

  size_t n = 0;
  for (const auto& part : partitions) n += part.size();
  if (n == 0) return Status::InvalidArgument("empty input");
  st.n = n;

  LPLOW_CHECK_GT(options.delta, 0.0);
  LPLOW_CHECK_LE(options.delta, 1.0);
  const int r = std::max(1, static_cast<int>(std::lround(1.0 / options.delta)));
  const size_t nu = problem.CombinatorialDimension();

  const double dn = static_cast<double>(n);
  size_t machines = options.machines
                        ? options.machines
                        : static_cast<size_t>(
                              std::ceil(std::pow(dn, 1.0 - options.delta)));
  machines = std::max<size_t>(machines, 1);
  const size_t fanout = std::max<size_t>(
      2, static_cast<size_t>(std::ceil(std::pow(dn, options.delta))));
  st.machines = machines;
  st.fanout = fanout;

  MpcRuntime rt(machines, fanout);
  st.tree_depth = rt.TreeDepth();

  // Distribute partitions onto machines (pad or fold as needed).
  std::vector<std::vector<Constraint>> mach_constraints(machines);
  for (size_t i = 0; i < partitions.size(); ++i) {
    auto& dst = mach_constraints[i % machines];
    for (auto& c : partitions[i]) dst.push_back(std::move(c));
  }
  std::vector<internal::Machine<P>> mach(machines);
  for (size_t i = 0; i < machines; ++i) {
    mach[i].store = engine::ConstraintStore<Constraint>(
        std::move(mach_constraints[i]));
  }

  Rng rng(options.seed);
  // Machine-order forks: machine i's local draws come from its own stream,
  // so the draw sequence does not depend on execution interleaving.
  for (size_t i = 0; i < machines; ++i) mach[i].rng = rng.ForkStream(i);

  std::unique_ptr<runtime::ThreadPool> owned_pool;
  runtime::ThreadPool* pool = runtime::ResolvePool(options.runtime, &owned_pool);
  runtime::SiteExecutor exec(pool, machines);
  st.threads = exec.threads();

  auto& metrics = runtime::MetricsRegistry::Global();
  metrics.GetCounter("mpc.solves")->Increment();
  runtime::ScopedTimer solve_timer(metrics.GetTimer("mpc.solve_seconds"));

  engine::RefinementPolicy policy =
      engine::MakePolicy(problem, n, r, options.net);
  policy.max_iterations =
      options.max_iterations
          ? options.max_iterations
          : ClarksonIterationCap(nu, static_cast<int>(1.0 / options.delta) + 1);
  policy.name = "SolveMpc";
  policy.pool = pool;
  engine::ApplyRuntimeOptions(policy, options.runtime, options.seed);
  st.sample_size = policy.sample_size;

  internal::MpcTransport<P> transport(problem, mach, rt, exec, rng, policy,
                                      st);
  engine::IterationCounters counters{&st.iterations,
                                     &st.successful_iterations,
                                     &st.direct_solve, &st.sample_bytes};
  return engine::RunRefinement(problem, transport, policy, counters);
}

}  // namespace mpc
}  // namespace lplow

#endif  // LPLOW_MODELS_MPC_MPC_SOLVER_H_
