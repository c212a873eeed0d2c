// Property suite for the SIMD violator-scan fast path (engine/scan_kernel,
// engine/soa_block, and ConstraintView's problem-aware entry points):
//
//  * bitmap bit-equality: scalar reference kernel == vector kernel ==
//    problem.Violates, for all three problems, across dimensions, sizes
//    straddling kSoaBlockWidth and kParallelScanMinItems, and hostile
//    values (NaN coordinates, +/-inf offsets, denormal weights);
//  * pool equivalence: the kernel path with and without a pool, on both
//    sides of kParallelScanMinItems, reports bitwise the ViolatorStats and
//    weights of a plain problem.Violates loop;
//  * fused scan-and-reweight: reuses the scan bitmap only when the
//    predicate is byte-identical (counter increments), falls back on a new
//    value or an Append, and always leaves exactly the weights the
//    unfused reference produces;
//  * the SampleIndices prefix cache: identical draws to the uncached
//    span-view reference, invalidated by reweights and appends.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/engine/constraint_store.h"
#include "src/engine/scan_kernel.h"
#include "src/engine/soa_block.h"
#include "src/problems/chebyshev_center.h"
#include "src/problems/enclosing_annulus.h"
#include "src/problems/linear_program.h"
#include "src/problems/linear_svm.h"
#include "src/problems/linf_regression.h"
#include "src/problems/min_enclosing_ball.h"
#include "src/runtime/thread_pool.h"
#include "src/util/rng.h"

namespace lplow {
namespace {

using engine::ConstraintStore;
using engine::ConstraintView;
using engine::GlobalScanMetrics;
using engine::kParallelScanMinItems;
using engine::kSoaBlockWidth;
using engine::RunScanKernelVariant;
using engine::ScanQuery;
using engine::ScanWorkspace;
using engine::SimdScannable;
using engine::SoaBlock;
using engine::SoaPaddedSize;
using engine::ViolatorStats;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

// ---------------------------------------------------------------- SoaBlock

TEST(SoaBlockTest, PadsColumnsToBlockWidth) {
  SoaBlock b;
  b.Reset(3, 1);
  EXPECT_TRUE(b.shaped());
  EXPECT_EQ(b.padded(), 0u);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(b.AppendLane(), i);
    b.Set(0, i, static_cast<double>(i));
  }
  EXPECT_EQ(b.size(), 9u);
  EXPECT_EQ(b.padded(), SoaPaddedSize(9));
  EXPECT_EQ(b.padded() % kSoaBlockWidth, 0u);
  // Padding lanes stay zero.
  for (size_t i = 9; i < b.padded(); ++i) EXPECT_EQ(b.Column(0)[i], 0.0);
  EXPECT_EQ(b.Column(0)[4], 4.0);
  b.SetAux(0, 2, 7.5);
  EXPECT_EQ(b.AuxColumn(0)[2], 7.5);
}

TEST(SoaBlockTest, SoaPaddedSizeRoundsUp) {
  EXPECT_EQ(SoaPaddedSize(0), 0u);
  EXPECT_EQ(SoaPaddedSize(1), kSoaBlockWidth);
  EXPECT_EQ(SoaPaddedSize(kSoaBlockWidth), kSoaBlockWidth);
  EXPECT_EQ(SoaPaddedSize(kSoaBlockWidth + 1), 2 * kSoaBlockWidth);
}

// ---------------------------------------------------- per-problem builders

Halfspace RandomHalfspace(size_t dim, Rng* rng) {
  Vec a(dim);
  for (size_t d = 0; d < dim; ++d) a[d] = rng->UniformDouble(-3, 3);
  return Halfspace(std::move(a), rng->UniformDouble(-5, 5));
}

SvmPoint RandomSvmPoint(size_t dim, Rng* rng) {
  SvmPoint p;
  p.x = Vec(dim);
  for (size_t d = 0; d < dim; ++d) p.x[d] = rng->UniformDouble(-4, 4);
  p.label = rng->UniformDouble() < 0.5 ? -1 : 1;
  return p;
}

Vec RandomPoint(size_t dim, Rng* rng) {
  Vec p(dim);
  for (size_t d = 0; d < dim; ++d) p[d] = rng->UniformDouble(-6, 6);
  return p;
}

LinearProgram::Value LpValueAt(size_t dim, Rng* rng) {
  LinearProgram::Value v;
  v.feasible = true;
  v.point = RandomPoint(dim, rng);
  return v;
}

// The generic harness: mirrors `constraints` through the trait, evaluates
// the query with the scalar reference and (when available) the vector
// kernel, and checks both bitmaps byte-for-byte against problem.Violates.
template <typename P, typename V, typename C>
void CheckBitmapEquality(const P& problem, const V& value,
                         const std::vector<C>& constraints) {
  using Trait = SimdScannable<P>;
  ASSERT_FALSE(constraints.empty());
  const size_t dim = Trait::Dim(problem, constraints[0]);
  SoaBlock soa;
  soa.Reset(dim, Trait::kAux);
  for (const C& c : constraints) {
    ASSERT_EQ(Trait::Dim(problem, c), dim);
    size_t lane = soa.AppendLane();
    ASSERT_TRUE(Trait::Mirror(problem, c, &soa, lane));
  }
  ScanQuery query = Trait::MakeQuery(problem, value, dim);
  ASSERT_EQ(query.mode, ScanQuery::Mode::kKernel);

  const size_t n = constraints.size();
  std::vector<uint8_t> expected(n);
  for (size_t i = 0; i < n; ++i) {
    expected[i] = problem.Violates(value, constraints[i]) ? 1 : 0;
  }

  std::vector<uint8_t> scalar(SoaPaddedSize(n), 0xFF);
  ASSERT_TRUE(RunScanKernelVariant(soa, query, scalar.data(), 0, n,
                                   /*use_vector=*/false));
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(scalar[i], expected[i]) << "scalar kernel lane " << i;
  }

  std::vector<uint8_t> vec(SoaPaddedSize(n), 0xFF);
  if (RunScanKernelVariant(soa, query, vec.data(), 0, n,
                           /*use_vector=*/true)) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(vec[i], expected[i]) << "vector kernel lane " << i;
    }
  }
}

// Sizes straddling the block width; one straddle of kParallelScanMinItems
// rides in the pool tests below (large sizes are slow to re-run per
// dimension).
std::vector<size_t> StraddleSizes() {
  return {1, kSoaBlockWidth - 1, kSoaBlockWidth, kSoaBlockWidth + 1, 61, 256};
}

TEST(ScanKernelProperty, LpBitmapMatchesViolatesAcrossDims) {
  Rng rng(0x5EED01);
  for (size_t dim : {2u, 3u, 8u, 13u}) {
    LinearProgram problem(RandomPoint(dim, &rng));
    for (size_t n : StraddleSizes()) {
      std::vector<Halfspace> cs;
      cs.reserve(n);
      for (size_t i = 0; i < n; ++i) cs.push_back(RandomHalfspace(dim, &rng));
      CheckBitmapEquality(problem, LpValueAt(dim, &rng), cs);
    }
  }
}

TEST(ScanKernelProperty, SvmBitmapMatchesViolatesAcrossDims) {
  Rng rng(0x5EED02);
  for (size_t dim : {2u, 3u, 8u, 13u}) {
    LinearSvm problem(dim);
    for (size_t n : StraddleSizes()) {
      std::vector<SvmPoint> cs;
      cs.reserve(n);
      for (size_t i = 0; i < n; ++i) cs.push_back(RandomSvmPoint(dim, &rng));
      LinearSvm::Value v;
      v.separable = true;
      v.u = RandomPoint(dim, &rng);
      CheckBitmapEquality(problem, v, cs);
    }
  }
}

TEST(ScanKernelProperty, MebBitmapMatchesViolatesAcrossDims) {
  Rng rng(0x5EED03);
  for (size_t dim : {2u, 3u, 8u, 13u}) {
    MinEnclosingBall problem(dim);
    for (size_t n : StraddleSizes()) {
      std::vector<Vec> cs;
      cs.reserve(n);
      for (size_t i = 0; i < n; ++i) cs.push_back(RandomPoint(dim, &rng));
      MinEnclosingBall::Value v;
      v.ball.center = RandomPoint(dim, &rng);
      v.ball.radius = rng.UniformDouble(0.1, 8.0);
      CheckBitmapEquality(problem, v, cs);
    }
  }
}

ChebyshevCenter::Value ChebValueAt(size_t dim, Rng* rng) {
  ChebyshevCenter::Value v;
  v.feasible = true;
  v.center = RandomPoint(dim, rng);
  v.radius = rng->UniformDouble(0.2, 4.0);
  return v;
}

LinfRegression::Value LinfValueAt(size_t dim, Rng* rng) {
  LinfRegression::Value v;
  v.empty = false;
  v.feasible = true;
  v.w = RandomPoint(dim, rng);
  v.t = rng->UniformDouble(0.1, 3.0);
  return v;
}

EnclosingAnnulus::Value AnnulusValueAt(size_t dim, Rng* rng) {
  EnclosingAnnulus::Value v;
  v.empty = false;
  v.feasible = true;
  v.center = RandomPoint(dim, rng);
  v.l = rng->UniformDouble(0.5, 3.0);
  v.u = v.l + rng->UniformDouble(0.5, 6.0);
  return v;
}

RegressionPoint RandomRegressionPoint(size_t dim, Rng* rng) {
  RegressionPoint p;
  p.x = RandomPoint(dim, rng);
  p.y = rng->UniformDouble(-5, 5);
  return p;
}

TEST(ScanKernelProperty, ChebyshevBitmapMatchesViolatesAcrossDims) {
  Rng rng(0x5EED0D);
  for (size_t dim : {2u, 3u, 8u, 13u}) {
    ChebyshevCenter problem(dim);
    for (size_t n : StraddleSizes()) {
      std::vector<Halfspace> cs;
      cs.reserve(n);
      for (size_t i = 0; i < n; ++i) cs.push_back(RandomHalfspace(dim, &rng));
      CheckBitmapEquality(problem, ChebValueAt(dim, &rng), cs);
    }
  }
}

TEST(ScanKernelProperty, LinfRegressionBitmapMatchesViolatesAcrossDims) {
  Rng rng(0x5EED0E);
  for (size_t dim : {2u, 3u, 8u, 13u}) {
    LinfRegression problem(dim);
    for (size_t n : StraddleSizes()) {
      std::vector<RegressionPoint> cs;
      cs.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        cs.push_back(RandomRegressionPoint(dim, &rng));
      }
      CheckBitmapEquality(problem, LinfValueAt(dim, &rng), cs);
    }
  }
}

TEST(ScanKernelProperty, AnnulusBitmapMatchesViolatesAcrossDims) {
  Rng rng(0x5EED0F);
  for (size_t dim : {2u, 3u, 8u, 13u}) {
    EnclosingAnnulus problem(dim);
    for (size_t n : StraddleSizes()) {
      std::vector<Vec> cs;
      cs.reserve(n);
      for (size_t i = 0; i < n; ++i) cs.push_back(RandomPoint(dim, &rng));
      CheckBitmapEquality(problem, AnnulusValueAt(dim, &rng), cs);
    }
  }
}

// --------------------------------------------------------- hostile values

TEST(ScanKernelProperty, LpHostileValuesMatchScalarSemantics) {
  Rng rng(0x5EED04);
  const size_t dim = 3;
  LinearProgram problem(RandomPoint(dim, &rng));
  std::vector<Halfspace> cs;
  for (size_t i = 0; i < 24; ++i) cs.push_back(RandomHalfspace(dim, &rng));
  cs[1].b = kInf;    // slack +inf: never violated
  cs[2].b = -kInf;   // slack -inf: always violated
  cs[3].a[0] = kNaN; // NaN slack: violated (matches !(NaN >= -tol))
  cs[4].a[1] = kInf;
  cs[5].b = kDenorm;
  // A NaN coordinate in the query point poisons every slack.
  LinearProgram::Value v = LpValueAt(dim, &rng);
  CheckBitmapEquality(problem, v, cs);
  LinearProgram::Value nan_point = v;
  nan_point.point[2] = kNaN;
  CheckBitmapEquality(problem, nan_point, cs);
}

TEST(ScanKernelProperty, SvmHostileValuesMatchScalarSemantics) {
  Rng rng(0x5EED05);
  const size_t dim = 2;
  LinearSvm problem(dim);
  std::vector<SvmPoint> cs;
  for (size_t i = 0; i < 24; ++i) cs.push_back(RandomSvmPoint(dim, &rng));
  cs[0].x[0] = kNaN;  // NaN dot: NOT violated (matches NaN < t0 == false)
  cs[1].x[1] = kInf;
  cs[2].x[0] = -kInf;
  cs[3].x[1] = kDenorm;
  LinearSvm::Value v;
  v.separable = true;
  v.u = RandomPoint(dim, &rng);
  CheckBitmapEquality(problem, v, cs);
  LinearSvm::Value nan_u = v;
  nan_u.u[0] = kNaN;
  CheckBitmapEquality(problem, nan_u, cs);
}

TEST(ScanKernelProperty, MebHostileValuesMatchScalarSemantics) {
  Rng rng(0x5EED06);
  const size_t dim = 3;
  MinEnclosingBall problem(dim);
  std::vector<Vec> cs;
  for (size_t i = 0; i < 24; ++i) cs.push_back(RandomPoint(dim, &rng));
  cs[0][0] = kNaN;  // NaN distance: violated (matches !(NaN <= t0))
  cs[1][1] = kInf;
  cs[2][2] = -kInf;
  cs[3][0] = kDenorm;
  MinEnclosingBall::Value v;
  v.ball.center = RandomPoint(dim, &rng);
  v.ball.radius = 3.0;
  CheckBitmapEquality(problem, v, cs);
}

TEST(ScanKernelProperty, ChebyshevHostileValuesMatchScalarSemantics) {
  Rng rng(0x5EED10);
  const size_t dim = 3;
  ChebyshevCenter problem(dim);
  std::vector<Halfspace> cs;
  for (size_t i = 0; i < 24; ++i) cs.push_back(RandomHalfspace(dim, &rng));
  cs[1].b = kInf;     // slack +inf: never violated
  cs[2].b = -kInf;    // slack -inf: always violated
  cs[3].a[0] = kNaN;  // NaN row scale AND slack: violated
  cs[4].a[1] = kInf;  // inf row scale: slack -inf through the radius term
  cs[5].b = kDenorm;
  ChebyshevCenter::Value v = ChebValueAt(dim, &rng);
  CheckBitmapEquality(problem, v, cs);
  ChebyshevCenter::Value nan_center = v;
  nan_center.center[2] = kNaN;
  CheckBitmapEquality(problem, nan_center, cs);
}

TEST(ScanKernelProperty, LinfRegressionHostileValuesMatchScalarSemantics) {
  Rng rng(0x5EED11);
  const size_t dim = 2;
  LinfRegression problem(dim);
  std::vector<RegressionPoint> cs;
  for (size_t i = 0; i < 24; ++i) {
    cs.push_back(RandomRegressionPoint(dim, &rng));
  }
  cs[0].x[0] = kNaN;  // NaN residual: violated (matches !(fabs(NaN) <= t0))
  cs[1].x[1] = kInf;  // +/-inf residual: violated
  cs[2].y = -kInf;
  cs[3].y = kNaN;
  cs[4].x[0] = kDenorm;
  LinfRegression::Value v = LinfValueAt(dim, &rng);
  CheckBitmapEquality(problem, v, cs);
  LinfRegression::Value nan_w = v;
  nan_w.w[1] = kNaN;
  CheckBitmapEquality(problem, nan_w, cs);
}

TEST(ScanKernelProperty, AnnulusHostileValuesMatchScalarSemantics) {
  Rng rng(0x5EED12);
  const size_t dim = 3;
  EnclosingAnnulus problem(dim);
  std::vector<Vec> cs;
  for (size_t i = 0; i < 24; ++i) cs.push_back(RandomPoint(dim, &rng));
  cs[0][0] = kNaN;  // NaN shell value: violated (outside any band)
  cs[1][1] = kInf;  // ||p||^2 inf: above the outer bound
  cs[2][2] = -kInf;
  cs[3][0] = kDenorm;
  EnclosingAnnulus::Value v = AnnulusValueAt(dim, &rng);
  CheckBitmapEquality(problem, v, cs);
  EnclosingAnnulus::Value nan_center = v;
  nan_center.center[1] = kNaN;
  CheckBitmapEquality(problem, nan_center, cs);
}

// ------------------------------------------------------ pool vs. no pool

// Runs scan -> fused reweight -> scan through the problem-aware entry
// points with and without a pool, and checks both runs against a
// `problem.Violates` loop written here: the same counts, and bitwise the
// same violator weights (the second scan sums the reweighted, non-uniform
// weights, so accumulation order shows) and final weights.
template <typename P, typename V, typename C>
void CheckPoolAgainstViolatesLoop(const P& problem, const V& value,
                                  const std::vector<C>& cs,
                                  runtime::ThreadPool* pool) {
  constexpr double kRate = 2.5;
  std::vector<double> want_weights(cs.size(), 1.0);
  ViolatorStats want_first, want_second;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (problem.Violates(value, cs[i])) {
      want_first.weight += 1.0;
      ++want_first.count;
      want_weights[i] *= kRate;
    }
  }
  for (size_t i = 0; i < cs.size(); ++i) {
    if (problem.Violates(value, cs[i])) {
      want_second.weight += want_weights[i];
      ++want_second.count;
    }
  }
  ASSERT_GT(want_first.count, 0u);  // both branches exercised
  ASSERT_LT(want_first.count, cs.size());

  for (runtime::ThreadPool* lane : {static_cast<runtime::ThreadPool*>(nullptr),
                                    pool}) {
    SCOPED_TRACE(lane == nullptr ? "no pool" : "pool");
    SCOPED_TRACE("n=" + std::to_string(cs.size()));
    ConstraintStore<C> store(cs);
    ViolatorStats first = store.View().ScanViolators(problem, value, lane);
    store.View().ScaleViolatorsFused(problem, value, kRate, lane);
    ViolatorStats second = store.View().ScanViolators(problem, value, lane);
    // Bitwise: the determinism contract is exact equality, not tolerance.
    EXPECT_EQ(first.count, want_first.count);
    EXPECT_EQ(std::memcmp(&first.weight, &want_first.weight, sizeof(double)),
              0);
    EXPECT_EQ(second.count, want_second.count);
    EXPECT_EQ(
        std::memcmp(&second.weight, &want_second.weight, sizeof(double)), 0);
    for (size_t i = 0; i < cs.size(); ++i) {
      const double got = store.View().weight(i);
      ASSERT_EQ(std::memcmp(&got, &want_weights[i], sizeof(double)), 0)
          << "weight " << i;
    }
  }
}

// LP on both sides of kParallelScanMinItems: below it the pool is ignored,
// above it the kernel fans out over block-aligned chunks.
TEST(ScanPathTest, LpPoolAndNoPoolMatchViolatesLoopAcrossThreshold) {
  Rng rng(0x5EED07);
  const size_t dim = 3;
  LinearProgram problem(RandomPoint(dim, &rng));
  runtime::ThreadPool pool(3);
  for (size_t n : {kParallelScanMinItems - 1, kParallelScanMinItems + 17}) {
    std::vector<Halfspace> cs;
    cs.reserve(n);
    for (size_t i = 0; i < n; ++i) cs.push_back(RandomHalfspace(dim, &rng));
    CheckPoolAgainstViolatesLoop(problem, LpValueAt(dim, &rng), cs, &pool);
  }
}

// The two newer ops (kAbsResidualAbove, kDotOutsideBand) on L-inf
// regression and annulus stores, above the pool threshold.
TEST(ScanPathTest, NewOpsPoolAndNoPoolMatchViolatesLoop) {
  Rng rng(0x5EED13);
  const size_t dim = 3;
  runtime::ThreadPool pool(3);
  const size_t n = kParallelScanMinItems + 17;
  {
    LinfRegression problem(dim);
    std::vector<RegressionPoint> cs;
    cs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      cs.push_back(RandomRegressionPoint(dim, &rng));
    }
    CheckPoolAgainstViolatesLoop(problem, LinfValueAt(dim, &rng), cs, &pool);
  }
  {
    EnclosingAnnulus problem(dim);
    std::vector<Vec> cs;
    cs.reserve(n);
    for (size_t i = 0; i < n; ++i) cs.push_back(RandomPoint(dim, &rng));
    CheckPoolAgainstViolatesLoop(problem, AnnulusValueAt(dim, &rng), cs,
                                 &pool);
  }
}

// Special modes: infeasible LP (nothing violates), empty-ball MEB and
// zero-u SVM (everything violates) must agree with the predicate path.
TEST(ScanPathTest, SpecialModesMatchPredicatePath) {
  Rng rng(0x5EED08);
  const size_t dim = 2;
  {
    LinearProgram problem(RandomPoint(dim, &rng));
    std::vector<Halfspace> cs;
    for (size_t i = 0; i < 20; ++i) cs.push_back(RandomHalfspace(dim, &rng));
    ConstraintStore<Halfspace> store(cs);
    LinearProgram::Value infeasible;
    infeasible.feasible = false;
    ViolatorStats st = store.View().ScanViolators(problem, infeasible,
                                                  nullptr);
    EXPECT_EQ(st.count, 0u);
    EXPECT_EQ(st.weight, 0.0);
  }
  {
    LinearSvm problem(dim);
    std::vector<SvmPoint> cs;
    for (size_t i = 0; i < 20; ++i) cs.push_back(RandomSvmPoint(dim, &rng));
    ConstraintStore<SvmPoint> store(cs);
    LinearSvm::Value zero;  // u.dim() == 0: everything violates
    ViolatorStats st = store.View().ScanViolators(problem, zero, nullptr);
    EXPECT_EQ(st.count, cs.size());
    EXPECT_EQ(st.weight, static_cast<double>(cs.size()));
    store.View().ScaleViolatorsFused(problem, zero, 2.0, nullptr);
    EXPECT_EQ(store.View().weight(0), 2.0);
    EXPECT_EQ(store.View().weight(cs.size() - 1), 2.0);
  }
  {
    MinEnclosingBall problem(dim);
    std::vector<Vec> cs;
    for (size_t i = 0; i < 20; ++i) cs.push_back(RandomPoint(dim, &rng));
    ConstraintStore<Vec> store(cs);
    MinEnclosingBall::Value empty;  // empty ball: everything violates
    ViolatorStats st = store.View().ScanViolators(problem, empty,
                                                  nullptr);
    EXPECT_EQ(st.count, cs.size());
  }
  {
    ChebyshevCenter problem(dim);
    std::vector<Halfspace> cs;
    for (size_t i = 0; i < 20; ++i) cs.push_back(RandomHalfspace(dim, &rng));
    ConstraintStore<Halfspace> store(cs);
    ChebyshevCenter::Value infeasible;
    infeasible.feasible = false;  // maximal: nothing violates
    ViolatorStats st = store.View().ScanViolators(problem, infeasible,
                                                  nullptr);
    EXPECT_EQ(st.count, 0u);
  }
  {
    LinfRegression problem(dim);
    std::vector<RegressionPoint> cs;
    for (size_t i = 0; i < 20; ++i) {
      cs.push_back(RandomRegressionPoint(dim, &rng));
    }
    ConstraintStore<RegressionPoint> store(cs);
    LinfRegression::Value empty;  // f(empty): everything violates
    ViolatorStats st = store.View().ScanViolators(problem, empty,
                                                  nullptr);
    EXPECT_EQ(st.count, cs.size());
  }
  {
    EnclosingAnnulus problem(dim);
    std::vector<Vec> cs;
    for (size_t i = 0; i < 20; ++i) cs.push_back(RandomPoint(dim, &rng));
    ConstraintStore<Vec> store(cs);
    EnclosingAnnulus::Value empty;  // f(empty): everything violates
    ViolatorStats st = store.View().ScanViolators(problem, empty,
                                                  nullptr);
    EXPECT_EQ(st.count, cs.size());
  }
}

// ------------------------------------------------------- fusion behavior

TEST(FusedReweightTest, ReusesBitmapOnlyForIdenticalPredicate) {
  Rng rng(0x5EED09);
  const size_t dim = 3;
  LinearProgram problem(RandomPoint(dim, &rng));
  std::vector<Halfspace> cs;
  for (size_t i = 0; i < 500; ++i) cs.push_back(RandomHalfspace(dim, &rng));
  LinearProgram::Value v = LpValueAt(dim, &rng);
  auto* fused = GlobalScanMetrics().fused_reweights;

  // Reference: unfused serial reweight.
  ConstraintStore<Halfspace> reference(cs);
  reference.View().ScaleViolators(
      [&](const Halfspace& c) { return problem.Violates(v, c); }, 3.0);

  ConstraintStore<Halfspace> store(cs);
  store.View().ScanViolators(problem, v, nullptr);
  const uint64_t before = fused->value();
  store.View().ScaleViolatorsFused(problem, v, 3.0, nullptr);
  EXPECT_EQ(fused->value(), before + 1);  // bitmap reused
  for (size_t i = 0; i < cs.size(); ++i) {
    double a = store.View().weight(i);
    double b = reference.View().weight(i);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "weight " << i;
  }

  // A different value must NOT fuse — and must still be correct.
  LinearProgram::Value v2 = LpValueAt(dim, &rng);
  ConstraintStore<Halfspace> reference2(cs);
  reference2.View().ScaleViolators(
      [&](const Halfspace& c) { return problem.Violates(v2, c); }, 3.0);
  ConstraintStore<Halfspace> store2(cs);
  store2.View().ScanViolators(problem, v, nullptr);
  const uint64_t before2 = fused->value();
  store2.View().ScaleViolatorsFused(problem, v2, 3.0, nullptr);
  EXPECT_EQ(fused->value(), before2);  // no reuse
  for (size_t i = 0; i < cs.size(); ++i) {
    double a = store2.View().weight(i);
    double b = reference2.View().weight(i);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "weight " << i;
  }
}

TEST(FusedReweightTest, AppendInvalidatesBitmapButNotCorrectness) {
  Rng rng(0x5EED0A);
  const size_t dim = 2;
  LinearProgram problem(RandomPoint(dim, &rng));
  std::vector<Halfspace> cs;
  for (size_t i = 0; i < 100; ++i) cs.push_back(RandomHalfspace(dim, &rng));
  LinearProgram::Value v = LpValueAt(dim, &rng);

  ConstraintStore<Halfspace> store(cs);
  store.View().ScanViolators(problem, v, nullptr);
  Halfspace extra = RandomHalfspace(dim, &rng);
  store.Append(extra);
  auto* fused = GlobalScanMetrics().fused_reweights;
  const uint64_t before = fused->value();
  store.View().ScaleViolatorsFused(problem, v, 4.0, nullptr);
  EXPECT_EQ(fused->value(), before);  // stale bitmap not reused

  std::vector<Halfspace> cs2 = cs;
  cs2.push_back(extra);
  ConstraintStore<Halfspace> reference(cs2);
  reference.View().ScaleViolators(
      [&](const Halfspace& c) { return problem.Violates(v, c); }, 4.0);
  ASSERT_EQ(store.size(), reference.size());
  for (size_t i = 0; i < store.size(); ++i) {
    double a = store.View().weight(i);
    double b = reference.View().weight(i);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "weight " << i;
  }
}

TEST(FusedReweightTest, CollectViolatorsReusesScanBitmap) {
  Rng rng(0x5EED0B);
  const size_t dim = 3;
  MinEnclosingBall problem(dim);
  std::vector<Vec> cs;
  for (size_t i = 0; i < 300; ++i) cs.push_back(RandomPoint(dim, &rng));
  MinEnclosingBall::Value v;
  v.ball.center = RandomPoint(dim, &rng);
  v.ball.radius = 4.0;

  ConstraintStore<Vec> store(cs);
  ViolatorStats st = store.View().ScanViolators(problem, v, nullptr);
  std::vector<Vec> collected = store.View().CollectViolators(problem, v, nullptr);
  EXPECT_EQ(collected.size(), st.count);
  std::vector<Vec> expected = store.View().CollectViolators(
      [&](const Vec& c) { return problem.Violates(v, c); });
  ASSERT_EQ(collected.size(), expected.size());
  for (size_t i = 0; i < collected.size(); ++i) {
    for (size_t d = 0; d < dim; ++d) {
      EXPECT_EQ(collected[i][d], expected[i][d]);
    }
  }
}

// ----------------------------------------------------- prefix-sum caching

// The cached prefix array must leave the draw sequence identical to a
// fresh, uncached span view consuming the same RNG stream — including
// after reweights and appends (cache invalidation), and with denormal
// weights (no re-normalization sneaking in).
TEST(SampleCacheTest, CachedDrawsMatchUncachedReference) {
  Rng value_rng(0x5EED0C);
  std::vector<int> items(257);
  for (size_t i = 0; i < items.size(); ++i) items[i] = static_cast<int>(i);
  ConstraintStore<int> store(items);

  // Mirror of the store's weights, applied through an uncached span view.
  std::vector<double> mirror_weights(items.size(), 1.0);
  auto mirror_view = [&] {
    return ConstraintView<int>(std::span<const int>(items),
                               std::span<double>(mirror_weights));
  };

  Rng rng_a(42), rng_b(42);
  for (int round = 0; round < 6; ++round) {
    // Two draws in a row from the same weights: the second hits the cache.
    for (int rep = 0; rep < 2; ++rep) {
      auto got = store.View().SampleIndices(25, &rng_a);
      auto want = mirror_view().SampleIndices(25, &rng_b);
      ASSERT_EQ(got, want) << "round " << round << " rep " << rep;
    }
    double t_a = store.View().TotalWeight();
    double t_b = mirror_view().TotalWeight();
    ASSERT_EQ(std::memcmp(&t_a, &t_b, sizeof(double)), 0);
    // Invalidate: reweight through both paths (denormal-heavy rates on some
    // rounds keep the arithmetic hostile).
    const double rate = round % 2 == 0 ? 1.75 : kDenorm;
    auto pred = [round](int v) { return v % (round + 2) == 0; };
    store.View().ScaleViolators(pred, rate);
    mirror_view().ScaleViolators(pred, rate);
  }

  // Append invalidates too.
  store.Append(9999);
  items.push_back(9999);  // NOTE: invalidates mirror spans; rebuild below.
  mirror_weights.push_back(1.0);
  auto got = store.View().SampleIndices(40, &rng_a);
  auto want = ConstraintView<int>(std::span<const int>(items),
                                  std::span<double>(mirror_weights))
                  .SampleIndices(40, &rng_b);
  ASSERT_EQ(got, want);
}

TEST(SampleCacheTest, ZeroAndEmptyWeightDrawDiscipline) {
  ConstraintStore<int> store(std::vector<int>{1, 2, 3});
  store.View().ScaleViolators([](int) { return true; }, 0.0);
  Rng rng(7);
  // Zero total weight: no draws consumed.
  EXPECT_TRUE(store.View().SampleIndices(5, &rng).empty());
  Rng rng2(7);
  EXPECT_EQ(rng.UniformDouble(), rng2.UniformDouble());
}

// ------------------------------------------------- dispatch / environment

TEST(ScanDispatchTest, KernelNameConsistentWithVectorActive) {
  const char* name = engine::ScanKernelName();
  if (engine::VectorScanActive()) {
    EXPECT_TRUE(std::string(name) == "avx2" || std::string(name) == "neon");
  } else {
    EXPECT_EQ(std::string(name), "scalar");
  }
}

TEST(ScanDispatchTest, SamePredicateIsBitwise) {
  ScanQuery a;
  a.mode = ScanQuery::Mode::kKernel;
  a.op = engine::ScanOp::kHalfspace;
  a.q = {1.0, 2.0};
  a.t0 = 1e-5;
  ScanQuery b = a;
  EXPECT_TRUE(a.SamePredicate(b));
  b.t0 = std::nextafter(a.t0, 1.0);
  EXPECT_FALSE(a.SamePredicate(b));
  b = a;
  b.q[1] = -0.0 * b.q[1] == 0.0 ? 2.0 : b.q[1];  // keep value, then flip sign
  b.q[0] = -1.0 * b.q[0];
  EXPECT_FALSE(a.SamePredicate(b));
  b = a;
  b.q = {1.0, 2.0, 3.0};
  EXPECT_FALSE(a.SamePredicate(b));
  // +0 vs -0 differ bitwise, so they must not alias.
  ScanQuery z0 = a, z1 = a;
  z0.t0 = 0.0;
  z1.t0 = -0.0;
  EXPECT_FALSE(z0.SamePredicate(z1));
  // The band op's second threshold participates in the predicate identity.
  ScanQuery band = a;
  band.op = engine::ScanOp::kDotOutsideBand;
  band.t1 = 0.25;
  ScanQuery band2 = band;
  EXPECT_TRUE(band.SamePredicate(band2));
  band2.t1 = std::nextafter(band.t1, 1.0);
  EXPECT_FALSE(band.SamePredicate(band2));
  ScanQuery bz0 = band, bz1 = band;
  bz0.t1 = 0.0;
  bz1.t1 = -0.0;
  EXPECT_FALSE(bz0.SamePredicate(bz1));
}

}  // namespace
}  // namespace lplow
