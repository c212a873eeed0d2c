// Distributed baselines in the coordinator model:
//
// * ShipAll        — every site sends its whole partition; 1 round, O(n bit)
//                    communication (the naive floor every algorithm beats).
// * TreeMergeOnce  — each site sends only the basis of its local subproblem;
//                    the coordinator solves the union of bases. 1 round and
//                    tiny communication, but NOT exact for LP-type problems
//                    (bases do not compose); its error rate is itself an
//                    experiment (E6).
// * IteratedTreeMerge — Daume et al. [26]-style repair: re-broadcast the
//                    merged solution, sites reply with local bases of their
//                    violated constraints, repeat until no violations.
//                    Exact (f strictly increases every round, and
//                    termination certifies global feasibility), but the
//                    round count is data-dependent — the trade-off the
//                    paper's Theorem 2 improves on.
//
// Per-site storage rides on the engine's span-based ConstraintView — the
// same layer beneath the model solvers — so violator collection and byte
// accounting share one implementation with Theorems 1-3.

#ifndef LPLOW_BASELINES_TREE_MERGE_H_
#define LPLOW_BASELINES_TREE_MERGE_H_

#include <span>
#include <vector>

#include "src/core/lp_type.h"
#include "src/engine/constraint_store.h"
#include "src/models/coordinator/channel.h"
#include "src/util/status.h"

namespace lplow {
namespace baselines {

struct TreeMergeStats {
  size_t rounds = 0;
  size_t total_bytes = 0;
  size_t k = 0;
};

/// One-shot basis merge. The result may be WRONG (value below f(S)); callers
/// compare against an exact solve to measure the error rate.
template <LpTypeProblem P>
BasisResult<typename P::Value, typename P::Constraint> TreeMergeOnce(
    const P& problem,
    const std::vector<std::vector<typename P::Constraint>>& partitions,
    TreeMergeStats* stats) {
  using Constraint = typename P::Constraint;
  TreeMergeStats local;
  TreeMergeStats& st = stats ? *stats : local;
  st = TreeMergeStats{};
  st.k = partitions.size();
  st.rounds = 1;

  std::vector<Constraint> merged;
  for (const auto& part : partitions) {
    engine::ConstraintView<Constraint> site{std::span<const Constraint>(part)};
    auto basis = problem.SolveBasis(site.items());
    engine::ConstraintView<Constraint> basis_view(
        std::span<const Constraint>(basis.basis));
    st.total_bytes += engine::SerializedBytes(problem, basis_view);
    merged.insert(merged.end(), basis.basis.begin(), basis.basis.end());
  }
  return problem.SolveBasis(std::span<const Constraint>(merged));
}

/// Iterated merge: exact, round count data-dependent.
template <LpTypeProblem P>
Result<BasisResult<typename P::Value, typename P::Constraint>>
IteratedTreeMerge(const P& problem,
                  const std::vector<std::vector<typename P::Constraint>>&
                      partitions,
                  TreeMergeStats* stats, size_t max_rounds = 10000) {
  using Constraint = typename P::Constraint;
  TreeMergeStats local;
  TreeMergeStats& st = stats ? *stats : local;
  st = TreeMergeStats{};
  st.k = partitions.size();

  // Per-site scan workspaces give the sites the engine's SIMD collection
  // path (identical violator sets either way; the repair loop re-collects
  // against a new value every round, so the SoA mirror is the win here,
  // not bitmap fusion).
  std::vector<engine::ScanWorkspace> workspaces(partitions.size());
  std::vector<engine::ConstraintView<Constraint>> sites;
  sites.reserve(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    sites.emplace_back(std::span<const Constraint>(partitions[i]),
                       &workspaces[i]);
  }

  std::vector<Constraint> working;
  auto current = problem.SolveBasis(std::span<const Constraint>(working));
  while (st.rounds < max_rounds) {
    ++st.rounds;
    // Broadcast the current basis (value certificate) to every site.
    engine::ConstraintView<Constraint> basis_view(
        std::span<const Constraint>(current.basis));
    st.total_bytes +=
        engine::SerializedBytes(problem, basis_view) * sites.size();

    // Sites reply with a local basis over their violated constraints.
    std::vector<Constraint> additions;
    for (const auto& site : sites) {
      std::vector<Constraint> violated =
          site.CollectViolators(problem, current.value, /*pool=*/nullptr);
      if (violated.empty()) continue;
      auto local_basis =
          problem.SolveBasis(std::span<const Constraint>(violated));
      for (const auto& c : local_basis.basis) {
        st.total_bytes += problem.ConstraintBytes(c);
        additions.push_back(c);
      }
      if (local_basis.basis.empty()) {
        // Degenerate (e.g. empty-basis problems): fall back to one violated
        // constraint so progress is guaranteed.
        st.total_bytes += problem.ConstraintBytes(violated.front());
        additions.push_back(violated.front());
      }
    }
    if (additions.empty()) return current;  // Nothing violates anywhere.

    working = current.basis;
    working.insert(working.end(), additions.begin(), additions.end());
    current = problem.SolveBasis(std::span<const Constraint>(working));
  }
  return Status::Internal("IteratedTreeMerge round cap reached");
}

}  // namespace baselines
}  // namespace lplow

#endif  // LPLOW_BASELINES_TREE_MERGE_H_
