// Process-wide metrics: named counters, gauges, and timers that the solvers,
// model runtimes, SolverService, and benches report into, with a stable JSON
// export (docs/runtime.md documents the schema). This is the baseline store
// the perf-tracking CI job diffs against.
//
// Metric objects are registered once per name and then updated lock-free
// (counters/gauges) or under a per-metric mutex (timers); pointers returned
// by Get* stay valid for the registry's lifetime, so hot paths look up a
// metric once and keep the pointer.

#ifndef LPLOW_RUNTIME_METRICS_H_
#define LPLOW_RUNTIME_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/stopwatch.h"

namespace lplow {
namespace runtime {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Duration accumulator: count, total, and max of recorded intervals.
class Timer {
 public:
  void Record(double seconds);
  uint64_t count() const;
  double total_seconds() const;
  /// total_seconds / count; 0 when nothing has been recorded.
  double mean_seconds() const;
  double max_seconds() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  double total_seconds_ = 0;
  double max_seconds_ = 0;
};

/// RAII interval recorder; records the elapsed wall time into `timer` on
/// destruction. A null timer disables the recording.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer* timer) : timer_(timer) {}
  ~ScopedTimer() {
    if (timer_ != nullptr) timer_->Record(watch_.ElapsedSeconds());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Dismisses the recording: the destructor becomes a no-op. For error
  /// paths that should not pollute count/max with an aborted interval.
  void Cancel() { timer_ = nullptr; }

 private:
  Timer* timer_;
  Stopwatch watch_;
};

/// Fixed log₂-bucketed value distribution: count, sum, and one counter per
/// power-of-two bucket, with deterministic quantiles (a quantile is always
/// the upper bound of the bucket that contains its rank — no interpolation,
/// so the same recorded multiset always reports the same percentiles).
///
/// Bucket boundaries are one shared process-wide table covering 2^-30 ..
/// 2^34 (sub-nanosecond timings up to tens-of-GiB byte sizes), so every
/// histogram in the process buckets identically and bucket counts of
/// deterministic quantities (bytes, rounds) are diff-stable across runs —
/// the property scripts/bench_compare.py strict-gates. Timing-valued
/// histograms have deterministic *counts* but machine-dependent bucket
/// placement; their percentiles are report-only, like timers.
class Histogram {
 public:
  /// Bucket i spans (2^(i-1+kMinExponent), 2^(i+kMinExponent)]; one final
  /// overflow bucket catches values beyond 2^kMaxExponent.
  static constexpr int kMinExponent = -30;
  static constexpr int kMaxExponent = 34;
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kMaxExponent - kMinExponent + 2);

  /// The shared bucket-boundary table: kNumBuckets-1 ascending upper
  /// bounds (the overflow bucket has none). Same span for every histogram.
  static std::span<const double> BucketBounds();

  /// Non-finite values (NaN, +inf, -inf) count into the overflow bucket
  /// but are left out of sum().
  void Record(double value);

  uint64_t count() const;
  double sum() const;

  /// Deterministic quantile in [0,1]: the upper bound of the first bucket
  /// whose cumulative count reaches ceil(q * count). 0 when empty; the
  /// overflow bucket reports 2^kMaxExponent.
  double Quantile(double q) const;

  /// (exponent, count) for every non-empty bucket, ascending; the overflow
  /// bucket reports exponent kMaxExponent + 1.
  std::vector<std::pair<int, uint64_t>> NonzeroBuckets() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
  double sum_ = 0;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

/// Named metric registry. Thread-safe; names are sorted in the JSON export
/// so output is diff-stable.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the library's solvers report into.
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Timer* GetTimer(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Writes {"counters":{...},"gauges":{...},"histograms":{...},
  /// "timers":{...}} (schema in docs/runtime.md).
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;

  /// Zeroes every registered metric (registrations and pointers survive).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_METRICS_H_
