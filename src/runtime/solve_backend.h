// SolveBackend: the injectable dispatch seam for the engine's heavyweight
// basis solves (oversized eps-net samples and the Las Vegas fallback).
//
// The engine's RunRefinement loop blocks on every basis solve, so *where*
// the solve runs is pure dispatch policy: the result, and with it every
// deterministic counter (rounds, bytes, iters, resample bytes), is
// bit-identical whichever backend executes it. With no backend set the
// engine solves inline on the calling thread; a ShardedSolverService routes
// the same solves across N shards for the heavy-traffic scenario, and a
// SocketSolveBackend ships them to an `lp_served` daemon.
// docs/runtime.md §"Sharded solver backend" documents the routing rule and
// the determinism contract.

#ifndef LPLOW_RUNTIME_SOLVE_BACKEND_H_
#define LPLOW_RUNTIME_SOLVE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace lplow {
namespace runtime {

/// Stable FNV-1a over the eight little-endian bytes of `job_id`. Shard
/// routing is `StableJobHash(id) % num_shards`: a pure function of the id,
/// never of queue state, so a job's shard is reproducible across runs,
/// processes, and thread counts.
inline uint64_t StableJobHash(uint64_t job_id) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (job_id >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Derives the routing key for one dispatch from a run-level id (typically
/// the solver seed) and the dispatch sequence number within the run, so
/// consecutive solves of one run spread across shards deterministically.
inline uint64_t DeriveJobId(uint64_t run_id, uint64_t seq) {
  return run_id ^ (0x9E3779B97F4A7C15ULL * (seq + 1));
}

/// Executes solve tasks on behalf of the engine. Execute() runs `task` as
/// one dispatch unit and returns only after it completed (rethrowing
/// anything the task threw), so callers keep the exact blocking semantics
/// of an inline solve. Implementations must be safe to call from pool
/// workers (no non-helping waits on their own pool).
class SolveBackend {
 public:
  virtual ~SolveBackend() = default;

  /// `job_id` keys deterministic routing (sharded backends); `kind` names
  /// the dispatch for accounting ("SolveCoordinator", ...).
  virtual void Execute(uint64_t job_id, const char* kind,
                       const std::function<void()>& task) = 0;

  /// True when the backend prefers jobs as wire bytes (a socket-served
  /// backend cannot ship a closure across the process boundary). Callers
  /// check this before paying for request serialization, so in-process
  /// backends never do.
  virtual bool WantsSerialized() const { return false; }

  /// Serialized dispatch: `request` is a wire::SolveRequest payload
  /// (src/runtime/wire.h); on success `*response` holds the matching
  /// SolveResponse payload and the call returns true. Returning false means
  /// the job was NOT executed remotely — unsupported backend, every
  /// endpoint down (or, under hash-sharded routing, the job's one home
  /// shard down), or a deterministic server-side error — and the caller
  /// must fall back to Execute() with the local closure. That fallback is
  /// the graceful-failover contract: results are bit-identical either way
  /// (docs/runtime.md §"Wire protocol").
  virtual bool ExecuteSerialized(uint64_t job_id, const char* kind,
                                 const std::vector<uint8_t>& request,
                                 std::vector<uint8_t>* response) {
    (void)job_id;
    (void)kind;
    (void)request;
    (void)response;
    return false;
  }
};

}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_SOLVE_BACKEND_H_
