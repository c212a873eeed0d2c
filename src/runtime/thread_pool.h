// A fixed-size, work-stealing-free thread pool plus structured fork-join
// primitives (TaskGroup, ParallelFor). This is the execution substrate for
// the concurrent site/machine emulation in src/models and for the
// SolverService job queue.
//
// Design constraints (see docs/runtime.md):
//   * deterministic protocols: the pool never owns randomness or ordering —
//     callers assign work to fixed indices and merge results at barriers, so
//     solver output is bit-identical for every thread count;
//   * no detached work: every task belongs to a TaskGroup (or is awaited via
//     the destructor), and ~ThreadPool drains the queue before joining;
//   * no deadlock under nesting: TaskGroup::Wait() helps execute queued pool
//     tasks while it waits, so a task may itself fork a group on the same
//     pool.

#ifndef LPLOW_RUNTIME_THREAD_POOL_H_
#define LPLOW_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lplow {
namespace runtime {

/// Fixed pool of worker threads draining one shared FIFO queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Prefer TaskGroup/ParallelFor: raw Submit has no
  /// completion handle, only the destructor's drain guarantee.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [begin, end) across the pool; blocks until
  /// all iterations finish and rethrows the first exception thrown.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn);

 private:
  friend class TaskGroup;

  /// Pops and runs one queued task; false if the queue was empty.
  bool RunOneTask();
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Structured fork-join scope over an optional pool. Run() schedules a task
/// (inline when `pool` is null — the serial reference path), Wait() blocks
/// until every scheduled task finished and rethrows the first captured
/// exception. The waiting thread helps drain the pool queue, so groups nest
/// safely on one pool. The destructor waits (swallowing errors) — a group
/// never leaks running tasks past its scope.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);
  void Wait();

 private:
  void CaptureError();

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  size_t pending_ = 0;
  std::exception_ptr first_error_;
};

/// Runs fn(i) for i in [begin, end): inline when `pool` is null, otherwise
/// as contiguous index blocks across the pool with the caller participating.
/// Iteration i always sees the same index regardless of thread count, which
/// is what makes "write to slot i, merge at the barrier" deterministic.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

class SolveBackend;  // solve_backend.h
namespace trace {
class TraceRecorder;  // trace.h
}

/// Threading knob shared by the model solvers (CoordinatorOptions::runtime,
/// MpcOptions::runtime). The default is the serial reference path; results
/// are bit-identical for every setting.
struct RuntimeOptions {
  /// Worker threads for the per-round site/machine emulation; 1 = serial.
  size_t num_threads = 1;
  /// Optional externally owned pool (e.g. shared across a SolverService);
  /// overrides num_threads when set.
  ThreadPool* pool = nullptr;
  /// Where the engine's oversized-basis and Las Vegas fallback solves run
  /// (e.g. a ShardedSolverService); null = inline on the calling thread.
  /// Pure dispatch policy: results and deterministic counters are
  /// bit-identical for every backend (docs/runtime.md §"Sharded solver
  /// backend").
  SolveBackend* solver_backend = nullptr;
  /// Sample sizes at or above this count as oversized and route through
  /// the backend (when one is set); 0 = the engine default (4096).
  size_t oversized_basis_threshold = 0;
  /// Span recorder for the engine's iteration / violator-scan / basis-solve
  /// spans (docs/runtime.md §"Tracing and histograms"); null or disabled =
  /// no tracing. Observability only — enabling it never changes results,
  /// transcripts, or deterministic counters. Must outlive the solve.
  trace::TraceRecorder* trace = nullptr;
};

/// Resolves RuntimeOptions to the pool a solver should use: the external
/// pool if set, else a fresh pool stored into *owned when num_threads > 1,
/// else nullptr (serial path).
ThreadPool* ResolvePool(const RuntimeOptions& options,
                        std::unique_ptr<ThreadPool>* owned);

}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_THREAD_POOL_H_
