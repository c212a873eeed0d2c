// Portable SIMD violator-scan kernels over a SoaBlock mirror, with runtime
// CPU dispatch and a bit-identical scalar reference.
//
// Determinism contract (docs/engine.md §"SIMD violator scan"): the kernels
// vectorize ACROSS constraints — one lane per constraint, looping over
// dimensions — so each lane's floating-point accumulation order is exactly
// the per-constraint order of the scalar predicate (`problem.Violates`).
// Multiplies and adds are never fused (every target builds with
// -ffp-contract=off, root CMakeLists.txt), comparisons reproduce the scalar
// NaN semantics, and sqrt is IEEE correctly-rounded on every target — so
// the violation bitmap is bitwise-equal to the scalar reference on every
// ISA, which is what lets the engine_equivalence goldens hold on every
// kernel variant.
//
// Dispatch: AVX2 (x86-64) and NEON (aarch64) kernels are compiled alongside
// an always-built scalar reference; the fastest supported variant is picked
// once at startup. LPLOW_FORCE_SCALAR_SCAN=1 disables the vector variants
// (the CI forced-scalar lane), changing nothing but the time per scan.
//
// Problems opt in via the SimdScannable trait, specialized next to each
// problem: all six shipped ones (LinearProgram, LinearSvm,
// MinEnclosingBall, ChebyshevCenter, LinfRegression, EnclosingAnnulus) do.
// Anything else runs ConstraintView's serial predicate loop.

#ifndef LPLOW_ENGINE_SCAN_KERNEL_H_
#define LPLOW_ENGINE_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/engine/soa_block.h"
#include "src/runtime/metrics.h"

namespace lplow {
namespace engine {

/// The predicate shapes the kernels evaluate. Each mirrors one problem's
/// Violates, operation for operation.
enum class ScanOp : uint8_t {
  /// LP halfspace a.x <= b with |b|-scaled tolerance: lane i is violated
  /// iff !(aux0[i] - dot(col, q) >= -(t0 * aux1[i])), where aux0 = b and
  /// aux1 = max(1, |b|). NaN slack counts as violated (matches
  /// Halfspace::Contains returning false on NaN).
  kHalfspace,
  /// SVM margin test: lane i is violated iff dot(col, q) < t0
  /// (t0 = 1 - margin_tol; NaN dot counts as NOT violated, matching the
  /// scalar `<` comparison).
  kDotBelowThreshold,
  /// MEB containment: lane i is violated iff
  /// !(sqrt(sum_d (col_d - q_d)^2) <= t0) (t0 = radius + tol; NaN distance
  /// counts as violated, matching Ball::Contains).
  kDistanceOutside,
  /// L-infinity regression residual: lane i is violated iff
  /// !(fabs(dot(col, q) - aux0[i]) <= t0), where aux0 = y and t0 is the
  /// current max residual plus tolerance. NaN residual counts as violated.
  kAbsResidualAbove,
  /// Annulus shell test: with v = aux0[i] - dot(col, q) (aux0 = |p|^2 and
  /// q = 2*center, so v = |p - c|^2 - |c|^2), lane i is violated iff
  /// !(v <= t0 && v >= t1) — t0/t1 are the outer/inner shifted
  /// squared-radius bounds. NaN v counts as violated.
  kDotOutsideBand,
};

/// A scan predicate distilled to kernel inputs. Two queries with equal
/// bytes decide identically on every lane — that identity is what the
/// fused scan-and-reweight path keys on (constraint_store.h).
struct ScanQuery {
  enum class Mode : uint8_t {
    /// Not expressible as a kernel (dimension mismatch, trait disabled):
    /// callers fall back to the predicate-lambda path.
    kUnsupported,
    /// Nothing violates (e.g. an infeasible LP value is maximal).
    kNoneViolate,
    /// Everything violates (e.g. the SVM f(empty) zero vector, the empty
    /// ball).
    kAllViolate,
    /// Run the kernel.
    kKernel,
  };

  Mode mode = Mode::kUnsupported;
  ScanOp op = ScanOp::kHalfspace;
  /// The query vector: LP optimum point / SVM normal u / MEB center.
  std::vector<double> q;
  /// Op-specific scalar (see ScanOp docs).
  double t0 = 0;
  /// Second op-specific scalar (kDotOutsideBand's lower bound); ops that
  /// need only one threshold leave it 0.
  double t1 = 0;

  /// Bitwise equality of the decision function: same mode, op, t0/t1 bit
  /// patterns, and q byte-for-byte. (Bitwise so ±0 and NaN payloads cannot
  /// alias two different predicates.)
  bool SamePredicate(const ScanQuery& other) const;
};

/// engine.scan.* counters (docs/runtime.md metrics table). simd_blocks and
/// scalar_tail depend on which kernel variant dispatch picked, so they vary
/// with CPU and LPLOW_FORCE_SCALAR_SCAN; the rest are fully deterministic.
struct ScanMetrics {
  runtime::Counter* simd_blocks;      // kSoaBlockWidth-lane groups run vectorized
  runtime::Counter* scalar_tail;      // lanes run by the scalar reference kernel
  runtime::Counter* fused_reweights;  // reweights served from a scan bitmap
  runtime::Counter* soa_rows;         // constraints mirrored into SoA blocks
  runtime::Counter* requests;         // problem-aware scan requests
};
ScanMetrics& GlobalScanMetrics();

/// True when a vector (AVX2/NEON) kernel is compiled in, supported by this
/// CPU, and not disabled via LPLOW_FORCE_SCALAR_SCAN=1. Resolved once.
bool VectorScanActive();

/// "avx2", "neon", or "scalar" — the variant RunScanKernel dispatches to.
const char* ScanKernelName();

/// Evaluates `query` (mode kKernel) over lanes [begin, end) of `block`,
/// writing 0/1 bytes into bitmap[begin..end). `begin` must be a multiple of
/// kSoaBlockWidth; `bitmap` must have room for SoaPaddedSize(end) bytes
/// (vector variants may scribble into the padding past `end`, never past
/// the padded boundary — so block-aligned chunks compose race-free).
/// Tallies vector-width groups / scalar lanes into the out-params when
/// non-null (callers fold them into GlobalScanMetrics()).
void RunScanKernel(const SoaBlock& block, const ScanQuery& query,
                   uint8_t* bitmap, size_t begin, size_t end,
                   uint64_t* vector_blocks, uint64_t* scalar_lanes);

/// Test hook: run exactly the scalar reference (use_vector = false) or
/// exactly the vector variant (returns false when none is available on
/// this build/CPU). Ignores LPLOW_FORCE_SCALAR_SCAN for use_vector = false.
bool RunScanKernelVariant(const SoaBlock& block, const ScanQuery& query,
                          uint8_t* bitmap, size_t begin, size_t end,
                          bool use_vector);

/// Opt-in trait connecting a problem to the kernels. The primary template
/// is disabled; specializations live next to the problem (so they are
/// visible wherever the problem is) and provide:
///
///   static constexpr bool enabled = true;
///   static constexpr size_t kAux;                      // aux column count
///   // Geometry dimension of one constraint (columns of the mirror).
///   static size_t Dim(const P& problem, const Constraint& c);
///   // Fills lane `lane`; false on a shape mismatch (disables the mirror).
///   static bool Mirror(const P& problem, const Constraint& c,
///                      SoaBlock* soa, size_t lane);
///   // Distills (problem config, value) into kernel inputs; mode
///   // kUnsupported when the predicate cannot be expressed.
///   static ScanQuery MakeQuery(const P& problem, const Value& v,
///                              size_t dim);
template <typename P>
struct SimdScannable {
  static constexpr bool enabled = false;
};

}  // namespace engine
}  // namespace lplow

#endif  // LPLOW_ENGINE_SCAN_KERNEL_H_
