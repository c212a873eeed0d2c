// Lock-cheap span tracing for the solve pipeline: every engine iteration,
// violator scan, basis solve, shard dispatch, and wire hop can record a
// span, and the whole run exports as Chrome trace_event JSON that loads
// directly in Perfetto or chrome://tracing (docs/runtime.md §"Tracing and
// histograms").
//
// Design goals, in order:
//   1. Disabled tracing is free. A `TraceSpan` built against a null or
//      disabled recorder reads no clock, takes no lock, and allocates
//      nothing — the engine hot path pays two predictable branches
//      (tests/trace_test.cc pins the zero-allocation property).
//   2. Recording is lock-cheap. Events append to a per-thread shard whose
//      mutex is only ever contended by the exporter, never by another
//      recording thread; span/trace ids come from one atomic counter.
//   3. Traces stitch across threads and the wire. Each thread carries a
//      stack of span contexts, so nested RAII spans parent naturally; a
//      `ContextScope` re-installs a parent on a worker thread, and the
//      (trace_id, parent_span) pair rides inside a SolveRequest frame so
//      daemon-side spans attach under the client's trace (src/runtime/wire.h).
//
// Tracing never feeds back into solving: spans observe timestamps and ids
// but no solver state, so enabling a recorder cannot change transcripts,
// counters, or goldens — the determinism contract stays intact.

#ifndef LPLOW_RUNTIME_TRACE_H_
#define LPLOW_RUNTIME_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace lplow {
namespace runtime {
namespace trace {

/// Identity of one span: the trace it belongs to plus its own id. A zero
/// trace_id means "no context" — a span built under it starts a new trace.
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// Thread-sharded span recorder. One recorder outlives every span and scope
/// built against it; all members are thread-safe.
class TraceRecorder {
 public:
  /// Spans carry at most this many key/value args (fixed so recording never
  /// allocates per-arg).
  static constexpr size_t kMaxArgs = 4;

  struct Arg {
    const char* key;  // Must outlive the recorder (string literals).
    uint64_t value;
  };

  /// One finished span as stored and exported. `tid` is the recording
  /// thread's registration index (dense from 0), not the OS thread id —
  /// stable enough for export, small enough for test assertions.
  struct EventRecord {
    const char* name = nullptr;  // Must outlive the recorder.
    uint64_t ts_us = 0;          // Steady-clock start, microseconds.
    uint64_t dur_us = 0;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;  // 0 = root span of its trace.
    uint32_t tid = 0;
    uint8_t num_args = 0;
    std::array<Arg, kMaxArgs> args{};
  };

  explicit TraceRecorder(bool enabled = true);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Names the process row in the exported trace ("lp_served", ...).
  void SetProcessLabel(std::string label);

  /// Fresh nonzero trace id, unique within this process.
  uint64_t NewTraceId() { return NextId(); }

  /// Steady-clock timestamp in microseconds (Stopwatch::NowMicros).
  static uint64_t NowMicros();

  /// Innermost span context installed on the calling thread by a live
  /// TraceSpan or ContextScope of THIS recorder; invalid context if none.
  SpanContext CurrentContext() const;

  /// Records a finished span from explicit timestamps — the async form, for
  /// intervals measured across threads (queue wait: enqueue on one thread,
  /// start on another). `parent` with a zero trace_id starts a new trace.
  /// Returns the recorded span's context (invalid when disabled).
  SpanContext RecordComplete(const char* name, uint64_t start_us,
                             uint64_t end_us, SpanContext parent,
                             std::initializer_list<Arg> args = {});

  size_t event_count() const;

  /// Copies out every recorded event (exporter order: stable-sorted by
  /// start timestamp).
  std::vector<EventRecord> Snapshot() const;

  /// Drops recorded events; thread registrations and ids survive.
  void Clear();

  /// Chrome trace_event JSON: {"traceEvents":[...]} with one "X" (complete)
  /// event per span, stable-sorted by start timestamp, pid = this process,
  /// tid = thread registration index. Loads in Perfetto / chrome://tracing.
  void WriteChromeJson(std::ostream& os) const;
  std::string ToChromeJson() const;

 private:
  friend class TraceSpan;
  friend class ContextScope;

  struct ThreadShard {
    std::mutex mu;
    std::vector<EventRecord> events;
    uint32_t tid = 0;
  };

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// This thread's shard (registered on first use, cached thread-locally).
  ThreadShard* GetShard();
  void Append(EventRecord ev);

  // Per-thread context stack plumbing (see trace.cc for the TLS stacks).
  void PushContext(SpanContext ctx);
  void PopContext(SpanContext ctx);

  const uint64_t id_;  // Process-unique; keys the TLS caches, never reused.
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::string process_label_;
  std::vector<std::unique_ptr<ThreadShard>> shards_;
  std::map<std::thread::id, ThreadShard*> shard_by_thread_;
};

/// RAII span: starts timing at construction, records at destruction, and is
/// the calling thread's current context in between (so nested spans parent
/// under it automatically). Inert — no clock read, no allocation — when the
/// recorder is null or disabled.
class TraceSpan {
 public:
  /// Parents under the thread's current context (new trace if none).
  TraceSpan(TraceRecorder* recorder, const char* name);

  /// Parents under an explicit context — e.g. one carried across the wire
  /// or captured before hopping threads.
  TraceSpan(TraceRecorder* recorder, const char* name, SpanContext parent);

  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a key/value arg (silently dropped beyond kMaxArgs or when the
  /// span is inactive). Keys must be string literals.
  void Arg(const char* key, uint64_t value);

  /// This span's identity; invalid when inactive. The pair that crosses the
  /// wire as a SolveRequest's trace context.
  SpanContext context() const { return ctx_; }

  bool active() const { return recorder_ != nullptr; }

 private:
  void Init(TraceRecorder* recorder, const char* name, SpanContext parent);

  TraceRecorder* recorder_ = nullptr;  // Null = inert span.
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
  SpanContext ctx_;
  uint64_t parent_span_ = 0;
  uint8_t num_args_ = 0;
  std::array<TraceRecorder::Arg, TraceRecorder::kMaxArgs> args_{};
};

/// Installs an explicit span context as the calling thread's current one for
/// the scope's lifetime — how a worker thread picks up the submitting
/// thread's span (or a daemon thread the client's wire context) as parent.
class ContextScope {
 public:
  ContextScope(TraceRecorder* recorder, SpanContext ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;
  SpanContext ctx_;
};

/// Splices several WriteChromeJson documents into one (client + scraped
/// daemon trace -> a single file Perfetto loads whole). Inputs must be in
/// the exporter's own format; empty strings are skipped.
std::string MergeChromeTraces(std::span<const std::string> traces);

}  // namespace trace
}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_TRACE_H_
