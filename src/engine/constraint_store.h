// The weighted constraint storage layer shared by the refinement engine,
// the three model runtimes (coordinator sites, MPC machines, the streaming
// gather paths), and the distributed baselines.
//
// ConstraintView is a non-owning, span-based window over a constraint
// sequence with optional per-item weights: weighted sampling, violator
// scans, and reweighting all run over the spans with zero copies.
// ConstraintStore owns the vectors and hands out views.
//
// Determinism contract: every floating-point accumulation (total weight,
// prefix sums, violator weight) runs in ascending index order — the order
// the pre-engine per-model loops used. The one parallel step is the
// kernel's *predicate evaluation* (pure, order-free), which fans out over
// the pool into a bitmap; weight and count then accumulate serially from
// the bitmap. Results are therefore bit-identical for every thread count,
// including the serial path (null pool).
//
// SIMD fast path (docs/engine.md §"SIMD violator scan"): the problem-aware
// entry points — ScanViolators, ScaleViolatorsFused,
// CollectViolators(problem, ...) — evaluate `problem.Violates` with the
// vectorized kernels of scan_kernel.h over a lazily maintained SoA mirror
// whenever the view carries a ScanWorkspace and engine::SimdScannable
// accepts the problem; otherwise they run the serial predicate loop. The
// kernels' bitmaps are bitwise-equal to the scalar predicate, so both ways
// produce bit-identical results. The workspace also fuses scan and
// reweight: a reweight whose predicate byte-compares equal to the last
// recorded scan query reuses the scan's bitmap instead of re-evaluating
// every constraint.

#ifndef LPLOW_ENGINE_CONSTRAINT_STORE_H_
#define LPLOW_ENGINE_CONSTRAINT_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/engine/scan_kernel.h"
#include "src/engine/soa_block.h"
#include "src/runtime/thread_pool.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace lplow {
namespace engine {

/// Result of a violator scan: total violating weight and count.
struct ViolatorStats {
  double weight = 0.0;
  uint64_t count = 0;
};

/// Below this many items a parallel scan is all overhead; the kernel path
/// runs single-threaded even when a pool is given.
inline constexpr size_t kParallelScanMinItems = 4096;

/// Reusable per-store scratch: the SoA mirror, the violation-bitmap buffer
/// (with the query it answers, for fusion), and the sampling prefix cache.
/// A workspace is bound to ONE logical constraint sequence that only ever
/// grows (ConstraintStore::Append keeps it honest); the view methods
/// maintain and invalidate it.
struct ScanWorkspace {
  enum class SoaState : uint8_t {
    kUnknown,   // no problem-aware scan has run yet
    kEnabled,   // mirror shaped and tracking the sequence
    kDisabled,  // trait declined (shape mismatch) — predicate path forever
  };

  // SoA mirror of the scan-relevant constraint numbers (lazily extended to
  // cover the sequence on each problem-aware scan).
  SoaState soa_state = SoaState::kUnknown;
  SoaBlock soa;

  // Violation bitmap scratch. When `bitmap_valid`, bitmap[0..bitmap_items)
  // holds the kernel verdicts for `bitmap_query` — the fusion key: a later
  // reweight/collect whose recomputed query SamePredicate-matches reuses it.
  std::vector<uint8_t> bitmap;
  bool bitmap_valid = false;
  size_t bitmap_items = 0;
  ScanQuery bitmap_query;

  // SampleIndices prefix-sum cache, rebuilt only after a weight change.
  std::vector<double> prefix;
  bool prefix_valid = false;

  /// New item: the bitmap no longer covers the sequence and the prefix sums
  /// are stale. (The SoA mirror itself needs no touch — it tracks coverage
  /// by lane count and catches up lazily.)
  void InvalidateOnAppend() {
    bitmap_valid = false;
    prefix_valid = false;
  }
  /// Weights changed: prefix sums are stale. The bitmap stays valid — scan
  /// predicates never read weights.
  void InvalidateWeights() { prefix_valid = false; }
};

/// Non-owning window over constraints plus (optionally) their weights.
/// An empty weight span means unit weights (the baselines' case).
template <typename C>
class ConstraintView {
 public:
  /// Unweighted view (every item has weight 1).
  explicit ConstraintView(std::span<const C> items) : items_(items) {}

  /// Unweighted view with a scan workspace (the baselines' SIMD path).
  ConstraintView(std::span<const C> items, ScanWorkspace* ws)
      : items_(items), ws_(ws) {}

  /// Weighted view; `weights` must have one entry per item and stays
  /// writable (reweighting mutates it in place).
  ConstraintView(std::span<const C> items, std::span<double> weights,
                 ScanWorkspace* ws = nullptr)
      : items_(items), weights_(weights), ws_(ws) {
    LPLOW_CHECK_EQ(items.size(), weights.size());
  }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::span<const C> items() const { return items_; }
  const C& operator[](size_t i) const { return items_[i]; }
  bool unit_weights() const { return weights_.empty(); }
  double weight(size_t i) const {
    return weights_.empty() ? 1.0 : weights_[i];
  }

  /// Sum of weights in ascending index order (the order is part of the
  /// determinism guarantee: floating-point sums are order-sensitive). Served
  /// from the sampling prefix cache when it is current — the cached running
  /// sum is built in the same ascending order, so the value is identical.
  double TotalWeight() const {
    if (ws_ != nullptr && ws_->prefix_valid &&
        ws_->prefix.size() == items_.size() && !items_.empty()) {
      return ws_->prefix.back();
    }
    if (weights_.empty()) return static_cast<double>(items_.size());
    double total = 0;
    for (double w : weights_) total += w;
    return total;
  }

  /// `count` weighted draws with replacement: prefix sums + binary search,
  /// O(n + count log n), consuming exactly `count` uniform draws from `rng`
  /// (zero when the view is empty or its weight is zero — the same draw
  /// discipline as the pre-engine site/machine samplers). With a workspace,
  /// the prefix array is cached across calls and rebuilt only after a
  /// weight change or append (same ascending construction → same bits).
  std::vector<size_t> SampleIndices(size_t count, Rng* rng) const {
    std::vector<size_t> out;
    if (items_.empty()) return out;
    std::vector<double> local;
    std::vector<double>* prefix = &local;
    if (ws_ != nullptr) {
      prefix = &ws_->prefix;
      if (!ws_->prefix_valid || ws_->prefix.size() != items_.size()) {
        BuildPrefix(prefix);
        ws_->prefix_valid = true;
      }
    } else {
      BuildPrefix(prefix);
    }
    const double acc = prefix->back();
    if (acc <= 0) return out;
    out.reserve(count);
    for (size_t s = 0; s < count; ++s) {
      double target = rng->UniformDouble() * acc;
      size_t pick = static_cast<size_t>(
          std::lower_bound(prefix->begin(), prefix->end(), target) -
          prefix->begin());
      if (pick >= prefix->size()) pick = prefix->size() - 1;
      out.push_back(pick);
    }
    return out;
  }

  /// Serial violator scan: ascending index order, weight and count of the
  /// items for which `violates(item)` holds.
  template <typename Pred>
  ViolatorStats CountViolators(Pred&& violates) const {
    ViolatorStats st;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (violates(items_[i])) {
        st.weight += weight(i);
        ++st.count;
      }
    }
    return st;
  }

  /// Multiplies the weight of every item with `violates(item)` by `rate`,
  /// saturating at `ceiling`. Requires a weighted view (vacuously fine on an
  /// empty one). The default ceiling (infinity) is the classic unbounded
  /// reweighting of the randomized models, whose success-gated updates are
  /// few; the deterministic transport reweights on *every* iteration and
  /// passes a finite ceiling so weights never overflow double (saturated
  /// violators stay the global maximum, which is all top-by-weight selection
  /// needs).
  template <typename Pred>
  void ScaleViolators(Pred&& violates, double rate,
                      double ceiling = std::numeric_limits<double>::infinity()) {
    LPLOW_CHECK_EQ(weights_.size(), items_.size());
    if (ws_ != nullptr) ws_->InvalidateWeights();
    for (size_t i = 0; i < items_.size(); ++i) {
      if (violates(items_[i])) {
        weights_[i] = std::min(weights_[i] * rate, ceiling);
      }
    }
  }

  /// Copies of all items for which `violates(item)` holds, in index order.
  template <typename Pred>
  std::vector<C> CollectViolators(Pred&& violates) const {
    std::vector<C> out;
    for (const C& c : items_) {
      if (violates(c)) out.push_back(c);
    }
    return out;
  }

  // ------------------------------------------------------------------------
  // Problem-aware entry points (the SIMD + fusion fast path). All three are
  // drop-in replacements for the predicate overloads with
  // `[&](const C& c) { return problem.Violates(value, c); }`: same results
  // to the bit for every pool and ISA. They run the kernel whenever the
  // view carries a workspace and SimdScannable<P> accepts the problem,
  // fanning out over `pool` when it is non-null and the view holds at least
  // kParallelScanMinItems items. Otherwise — no workspace, a dimension
  // mismatch (kUnsupported), or a mirror the trait declined — they run the
  // serial predicate overloads above.
  // ------------------------------------------------------------------------

  /// Violator scan via `problem.Violates(value, ·)`. On the kernel path the
  /// verdict bitmap and its query key are recorded in the workspace, arming
  /// the fused reweight/collect below.
  template <typename P, typename V>
  ViolatorStats ScanViolators(const P& problem, const V& value,
                              runtime::ThreadPool* pool) const {
    GlobalScanMetrics().requests->Increment();
    if (items_.empty()) return {};
    if constexpr (SimdScannable<P>::enabled) {
      if (ws_ != nullptr && EnsureMirror(problem)) {
        ScanQuery query =
            SimdScannable<P>::MakeQuery(problem, value, ws_->soa.dim());
        switch (query.mode) {
          case ScanQuery::Mode::kNoneViolate:
            return {};
          case ScanQuery::Mode::kAllViolate: {
            ViolatorStats st;
            st.count = items_.size();
            st.weight = TotalWeight();  // same ascending accumulation
            return st;
          }
          case ScanQuery::Mode::kKernel: {
            FillBitmap(std::move(query), pool);
            ViolatorStats st;
            const uint8_t* bits = ws_->bitmap.data();
            for (size_t i = 0; i < items_.size(); ++i) {
              if (bits[i]) {
                st.weight += weight(i);
                ++st.count;
              }
            }
            return st;
          }
          case ScanQuery::Mode::kUnsupported:
            break;  // fall through to the predicate path
        }
      }
    }
    return CountViolators(
        [&](const C& c) { return problem.Violates(value, c); });
  }

  /// Reweighting via `problem.Violates(value, ·)`. When the workspace holds
  /// a bitmap recorded for the byte-identical query — the common case: the
  /// engine reweights against exactly the basis it just scanned — the
  /// verdicts are reused and no constraint is re-evaluated
  /// (engine.scan.fused_reweights counts these). Any mismatch (new value,
  /// appended items, different problem config) falls back to a fresh
  /// evaluation; the fusion is an optimization, never an assumption.
  template <typename P, typename V>
  void ScaleViolatorsFused(
      const P& problem, const V& value, double rate, runtime::ThreadPool* pool,
      double ceiling = std::numeric_limits<double>::infinity()) {
    GlobalScanMetrics().requests->Increment();
    if (items_.empty()) return;
    LPLOW_CHECK_EQ(weights_.size(), items_.size());
    if constexpr (SimdScannable<P>::enabled) {
      if (ws_ != nullptr && EnsureMirror(problem)) {
        ScanQuery query =
            SimdScannable<P>::MakeQuery(problem, value, ws_->soa.dim());
        switch (query.mode) {
          case ScanQuery::Mode::kNoneViolate:
            return;
          case ScanQuery::Mode::kAllViolate: {
            ws_->InvalidateWeights();
            ScaleAll(rate, ceiling, pool);
            return;
          }
          case ScanQuery::Mode::kKernel: {
            if (BitmapCurrent(query)) {
              GlobalScanMetrics().fused_reweights->Increment();
            } else {
              FillBitmap(std::move(query), pool);
            }
            ws_->InvalidateWeights();
            ScaleFromBitmap(rate, ceiling, pool);
            return;
          }
          case ScanQuery::Mode::kUnsupported:
            break;
        }
      }
    }
    ScaleViolators([&](const C& c) { return problem.Violates(value, c); },
                   rate, ceiling);
  }

  /// Violator collection via `problem.Violates(value, ·)`, in index order.
  /// Reuses a current bitmap (or runs the kernel) like the scan above.
  template <typename P, typename V>
  std::vector<C> CollectViolators(const P& problem, const V& value,
                                  runtime::ThreadPool* pool) const {
    GlobalScanMetrics().requests->Increment();
    std::vector<C> out;
    if (items_.empty()) return out;
    if constexpr (SimdScannable<P>::enabled) {
      if (ws_ != nullptr && EnsureMirror(problem)) {
        ScanQuery query =
            SimdScannable<P>::MakeQuery(problem, value, ws_->soa.dim());
        switch (query.mode) {
          case ScanQuery::Mode::kNoneViolate:
            return out;
          case ScanQuery::Mode::kAllViolate:
            out.assign(items_.begin(), items_.end());
            return out;
          case ScanQuery::Mode::kKernel: {
            if (!BitmapCurrent(query)) FillBitmap(std::move(query), pool);
            const uint8_t* bits = ws_->bitmap.data();
            for (size_t i = 0; i < items_.size(); ++i) {
              if (bits[i]) out.push_back(items_[i]);
            }
            return out;
          }
          case ScanQuery::Mode::kUnsupported:
            break;
        }
      }
    }
    return CollectViolators(
        [&](const C& c) { return problem.Violates(value, c); });
  }

 private:
  void BuildPrefix(std::vector<double>* prefix) const {
    prefix->resize(items_.size());
    double acc = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      acc += weight(i);
      (*prefix)[i] = acc;
    }
  }

  /// Extends the SoA mirror to cover every item (lazy sync with Append).
  /// False — permanently — if the trait declines any item: heterogeneous
  /// shapes mean the predicate is not expressible as one kernel sweep.
  template <typename P>
  bool EnsureMirror(const P& problem) const {
    using Trait = SimdScannable<P>;
    ScanWorkspace& ws = *ws_;
    if (ws.soa_state == ScanWorkspace::SoaState::kDisabled) return false;
    if (ws.soa_state == ScanWorkspace::SoaState::kUnknown) {
      const size_t dim = Trait::Dim(problem, items_[0]);
      if (dim == 0) {
        ws.soa_state = ScanWorkspace::SoaState::kDisabled;
        return false;
      }
      ws.soa.Reset(dim, Trait::kAux);
      ws.soa_state = ScanWorkspace::SoaState::kEnabled;
    }
    const size_t already = ws.soa.size();
    for (size_t i = already; i < items_.size(); ++i) {
      if (Trait::Dim(problem, items_[i]) != ws.soa.dim()) {
        ws.soa_state = ScanWorkspace::SoaState::kDisabled;
        return false;
      }
      const size_t lane = ws.soa.AppendLane();
      if (!Trait::Mirror(problem, items_[i], &ws.soa, lane)) {
        ws.soa_state = ScanWorkspace::SoaState::kDisabled;
        return false;
      }
    }
    if (items_.size() > already) {
      GlobalScanMetrics().soa_rows->Increment(items_.size() - already);
    }
    return true;
  }

  /// True when the recorded bitmap answers exactly `query` over the current
  /// item count — the fusion test.
  bool BitmapCurrent(const ScanQuery& query) const {
    return ws_->bitmap_valid && ws_->bitmap_items == items_.size() &&
           ws_->bitmap_query.SamePredicate(query);
  }

  /// Runs the kernel over every lane into the workspace bitmap and records
  /// the query key. Pool-chunked on kSoaBlockWidth boundaries when a pool
  /// is given and the view is large (chunks never write past their own
  /// padded block, so the fan-out is race-free); accumulation stays with
  /// callers, reading the bitmap serially.
  void FillBitmap(ScanQuery query, runtime::ThreadPool* pool) const {
    ScanWorkspace& ws = *ws_;
    const size_t n = items_.size();
    const size_t padded = SoaPaddedSize(n);
    ws.bitmap.resize(padded);
    uint8_t* bits = ws.bitmap.data();
    if (pool != nullptr && n >= kParallelScanMinItems) {
      const size_t blocks = padded / kSoaBlockWidth;
      runtime::ParallelFor(pool, 0, blocks, [&](size_t b) {
        const size_t lo = b * kSoaBlockWidth;
        RunScanKernel(ws.soa, query, bits, lo,
                      std::min(lo + kSoaBlockWidth, n), nullptr, nullptr);
      });
    } else {
      RunScanKernel(ws.soa, query, bits, 0, n, nullptr, nullptr);
    }
    ScanMetrics& metrics = GlobalScanMetrics();
    if (VectorScanActive()) {
      metrics.simd_blocks->Increment(padded / kSoaBlockWidth);
    } else {
      metrics.scalar_tail->Increment(n);
    }
    ws.bitmap_valid = true;
    ws.bitmap_items = n;
    ws.bitmap_query = std::move(query);
  }

  void ScaleAll(double rate, double ceiling, runtime::ThreadPool* pool) {
    double* w = weights_.data();
    auto update = [rate, ceiling, w](size_t i) {
      w[i] = std::min(w[i] * rate, ceiling);
    };
    if (pool != nullptr && items_.size() >= kParallelScanMinItems) {
      runtime::ParallelFor(pool, 0, items_.size(), update);
    } else {
      for (size_t i = 0; i < items_.size(); ++i) update(i);
    }
  }

  void ScaleFromBitmap(double rate, double ceiling,
                       runtime::ThreadPool* pool) {
    const uint8_t* bits = ws_->bitmap.data();
    double* w = weights_.data();
    auto update = [rate, ceiling, w, bits](size_t i) {
      if (bits[i]) w[i] = std::min(w[i] * rate, ceiling);
    };
    if (pool != nullptr && items_.size() >= kParallelScanMinItems) {
      runtime::ParallelFor(pool, 0, items_.size(), update);
    } else {
      for (size_t i = 0; i < items_.size(); ++i) update(i);
    }
  }

  std::span<const C> items_;
  std::span<double> weights_;
  ScanWorkspace* ws_ = nullptr;
};

/// Exact serialized size of every item in the view — the bit(S) accounting
/// of Theorems 1-3, shared by the models and the baselines.
template <typename P, typename C>
size_t SerializedBytes(const P& problem, ConstraintView<C> view) {
  size_t total = 0;
  for (const C& c : view.items()) total += problem.ConstraintBytes(c);
  return total;
}

/// Owning weighted constraint set: the per-site / per-machine storage of
/// the model runtimes. Weights start at 1 (the Algorithm 1 initial state).
/// Owns a ScanWorkspace, so View() hands out SIMD-and-fusion-capable views.
template <typename C>
class ConstraintStore {
 public:
  ConstraintStore() = default;
  explicit ConstraintStore(std::vector<C> items)
      : items_(std::move(items)), weights_(items_.size(), 1.0) {}

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const std::vector<C>& items() const { return items_; }

  void Append(C item) {
    items_.push_back(std::move(item));
    weights_.push_back(1.0);
    ws_.InvalidateOnAppend();
  }

  ConstraintView<C> View() {
    return ConstraintView<C>(std::span<const C>(items_),
                             std::span<double>(weights_), &ws_);
  }

 private:
  std::vector<C> items_;
  std::vector<double> weights_;
  ScanWorkspace ws_;
};

}  // namespace engine
}  // namespace lplow

#endif  // LPLOW_ENGINE_CONSTRAINT_STORE_H_
