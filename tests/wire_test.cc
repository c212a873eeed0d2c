// Wire protocol (label `quick`, so the whole file also runs under the
// ASan/UBSan CI lane): frame and payload round trips, the served-solve
// response matching a direct SolveBasis byte-for-byte, the single-version
// gate (only kWireVersion decodes), and the adversarial decode sweep — truncation at EVERY byte boundary, bad
// magic/version/kind, hostile declared lengths (dims, counts, frame sizes)
// and hostile trace flags, all failing with a clean Status before any
// allocation, never UB.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/problems/chebyshev_center.h"
#include "src/problems/enclosing_annulus.h"
#include "src/problems/linear_program.h"
#include "src/problems/linear_svm.h"
#include "src/problems/linf_regression.h"
#include "src/problems/min_enclosing_ball.h"
#include "src/runtime/wire.h"
#include "src/util/bit_stream.h"
#include "src/util/status.h"
#include "tests/testing_util.h"

namespace lplow {
namespace {

namespace wire = runtime::wire;

// ----------------------------------------------------------------- frames

TEST(WireFrameTest, RoundTripsHeaderAndPayload) {
  const std::vector<uint8_t> payload = {1, 2, 3, 250, 0, 7};
  auto bytes = wire::EncodeFrame(
      wire::FrameKind::kSolveRequest,
      std::span<const uint8_t>(payload.data(), payload.size()));
  ASSERT_EQ(bytes.size(), wire::kFrameHeaderBytes + payload.size());

  auto frame = wire::DecodeFrame(bytes.data(), bytes.size());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.kind, wire::FrameKind::kSolveRequest);
  EXPECT_EQ(frame->header.version, wire::kWireVersion);
  EXPECT_EQ(frame->payload, payload);
}

TEST(WireFrameTest, RoundTripsEmptyPayload) {
  for (auto kind : {wire::FrameKind::kPing, wire::FrameKind::kPong,
                    wire::FrameKind::kBusy, wire::FrameKind::kShutdown}) {
    auto bytes = wire::EncodeFrame(kind, {});
    ASSERT_EQ(bytes.size(), wire::kFrameHeaderBytes);
    auto frame = wire::DecodeFrame(bytes.data(), bytes.size());
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->header.kind, kind);
    EXPECT_TRUE(frame->payload.empty());
  }
}

TEST(WireFrameTest, RejectsBadMagic) {
  auto bytes = wire::EncodeFrame(wire::FrameKind::kPing, {});
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(wire::DecodeFrame(bytes.data(), bytes.size()).ok());
}

TEST(WireFrameTest, RejectsWrongVersion) {
  // Only kWireVersion decodes: 0 predates the protocol, 1 is the retired
  // pre-trace-context layout, and anything newer is unknown to this peer.
  for (uint8_t version : {uint8_t{0}, uint8_t{1},
                          static_cast<uint8_t>(wire::kWireVersion + 1)}) {
    auto bytes = wire::EncodeFrame(wire::FrameKind::kPing, {});
    bytes[4] = version;
    auto frame = wire::DecodeFrame(bytes.data(), bytes.size());
    ASSERT_FALSE(frame.ok()) << "version " << int{version} << " accepted";
    EXPECT_NE(frame.status().ToString().find("version"), std::string::npos);
  }
}

TEST(WireFrameTest, RejectsUnknownKind) {
  for (uint8_t kind : {uint8_t{0}, uint8_t{11}, uint8_t{255}}) {
    auto bytes = wire::EncodeFrame(wire::FrameKind::kPing, {});
    bytes[5] = kind;
    EXPECT_FALSE(wire::DecodeFrame(bytes.data(), bytes.size()).ok())
        << "kind " << int{kind} << " accepted";
  }
}

TEST(WireFrameTest, RejectsOversizedDeclaredPayload) {
  // A header declaring 4 GiB of payload must be rejected from the 10 header
  // bytes alone — before anything is allocated or read.
  BitWriter w;
  wire::EncodeFrameHeader(wire::FrameKind::kSolveRequest, 0xFFFFFFFFu, &w);
  auto bytes = w.Release();
  BitReader r(bytes);
  auto header = wire::DecodeFrameHeader(&r);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kResourceExhausted);

  // A tighter caller-chosen limit binds the same way.
  BitReader r2(bytes);
  bytes[6] = 200;  // payload_size = 200 little-endian...
  bytes[7] = bytes[8] = bytes[9] = 0;
  EXPECT_FALSE(wire::DecodeFrameHeader(&r2, /*max_payload=*/100).ok());
}

TEST(WireFrameTest, RejectsTruncationAtEveryByte) {
  const std::vector<uint8_t> payload = {42, 43, 44, 45};
  auto bytes = wire::EncodeFrame(
      wire::FrameKind::kError,
      std::span<const uint8_t>(payload.data(), payload.size()));
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(wire::DecodeFrame(bytes.data(), len).ok())
        << "prefix of " << len << " bytes decoded as a whole frame";
  }
}

TEST(WireFrameTest, RejectsTrailingBytes) {
  auto bytes = wire::EncodeFrame(wire::FrameKind::kPong, {});
  bytes.push_back(0);
  EXPECT_FALSE(wire::DecodeFrame(bytes.data(), bytes.size()).ok());
}

TEST(WireFrameTest, FrameKindNamesAreStableMetricSuffixes) {
  // These strings are metric-key suffixes (wire.client.tx_bytes.<name>);
  // renaming one silently breaks dashboards, so each is pinned.
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kHello), "hello");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kSolveRequest),
               "solve_request");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kSolveResponse),
               "solve_response");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kError), "error");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kPing), "ping");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kPong), "pong");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kBusy), "busy");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kShutdown), "shutdown");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kStatsRequest),
               "stats_request");
  EXPECT_STREQ(wire::FrameKindName(wire::FrameKind::kStatsResponse),
               "stats_response");
  EXPECT_STREQ(wire::FrameKindName(static_cast<wire::FrameKind>(200)),
               "unknown");
}

// ------------------------------------------------------- control payloads

TEST(WireControlTest, HelloRoundTrips) {
  wire::Hello hello;
  hello.num_shards = 4;
  hello.max_inflight = 1'000'000;
  auto payload = wire::EncodeHelloPayload(hello);
  auto decoded = wire::DecodeHelloPayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_shards, hello.num_shards);
  EXPECT_EQ(decoded->max_inflight, hello.max_inflight);

  payload.push_back(1);
  EXPECT_FALSE(wire::DecodeHelloPayload(payload).ok());
}

TEST(WireControlTest, ErrorPayloadRoundTrips) {
  Status in = Status::Infeasible("no point satisfies the sample");
  auto payload = wire::EncodeErrorPayload(in);
  Status out = wire::DecodeErrorPayload(payload);
  EXPECT_EQ(out.code(), in.code());
  EXPECT_EQ(out.message(), in.message());
}

TEST(WireControlTest, ErrorPayloadRejectsOkAndUnknownCodes) {
  {
    BitWriter w;
    w.PutU8(0);  // kOk carried as an error is a protocol violation.
    w.PutString("fine");
    EXPECT_EQ(wire::DecodeErrorPayload(w.Release()).code(),
              StatusCode::kInvalidArgument);
  }
  {
    BitWriter w;
    w.PutU8(200);  // Out of the StatusCode range.
    w.PutString("???");
    EXPECT_EQ(wire::DecodeErrorPayload(w.Release()).code(),
              StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------- solve request/response

/// Shared round-trip check: served response bytes must equal the bytes of a
/// direct local SolveBasis encoded the same way — bit-identity, the
/// determinism contract the socket backend rests on.
template <wire::WireSolvable P>
void CheckServedSolveMatchesLocal(
    const P& problem, const std::vector<typename P::Constraint>& sample) {
  const uint64_t job_id = 0xAB5501DULL;
  auto request = wire::EncodeSolveRequestPayload(
      job_id, problem,
      std::span<const typename P::Constraint>(sample.data(), sample.size()));

  auto head = wire::PeekSolveRequestHead(request);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->job_id, job_id);
  EXPECT_EQ(head->problem, wire::ProblemCodec<P>::kKind);

  auto served = wire::ServeSolveRequestPayload(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  auto local = problem.SolveBasis(
      std::span<const typename P::Constraint>(sample.data(), sample.size()));
  auto local_bytes = wire::EncodeSolveResponsePayload(job_id, problem, local);
  EXPECT_EQ(*served, local_bytes)
      << "served response bytes differ from the local solve";

  // The decoded result round-trips back to the same bytes, and its basis
  // hashes identically to the local one.
  auto decoded = wire::DecodeSolveResponsePayload(problem, *served, job_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(wire::EncodeSolveResponsePayload(job_id, problem, *decoded),
            local_bytes);
  EXPECT_EQ(testing_util::BasisHash(problem, *decoded),
            testing_util::BasisHash(problem, local));
  EXPECT_EQ(problem.CompareValues(decoded->value, local.value), 0);

  // Adversarial sweep over the REQUEST: every proper prefix must fail with
  // a clean Status (truncation can land inside any field).
  for (size_t len = 0; len < request.size(); ++len) {
    std::vector<uint8_t> prefix(request.begin(), request.begin() + len);
    EXPECT_FALSE(wire::ServeSolveRequestPayload(prefix).ok())
        << "request prefix of " << len << " bytes was served";
  }
  // And over the RESPONSE: same rule on the client side.
  for (size_t len = 0; len < served->size(); ++len) {
    std::vector<uint8_t> prefix(served->begin(), served->begin() + len);
    EXPECT_FALSE(
        wire::DecodeSolveResponsePayload(problem, prefix, job_id).ok())
        << "response prefix of " << len << " bytes decoded";
  }

  // Trailing bytes are rejected on both sides.
  auto padded_request = request;
  padded_request.push_back(0);
  EXPECT_FALSE(wire::ServeSolveRequestPayload(padded_request).ok());
  auto padded_response = *served;
  padded_response.push_back(0);
  EXPECT_FALSE(
      wire::DecodeSolveResponsePayload(problem, padded_response, job_id).ok());

  // A response echoing some other job id is not this job's answer.
  EXPECT_FALSE(
      wire::DecodeSolveResponsePayload(problem, *served, job_id + 1).ok());
}

TEST(WireSolveTest, LinearProgramServedSolveIsBitIdentical) {
  auto c = testing_util::MakeFeasibleLpCase(40, 2, 7);
  CheckServedSolveMatchesLocal(c.problem, c.constraints);
}

TEST(WireSolveTest, LinearSvmServedSolveIsBitIdentical) {
  auto c = testing_util::MakeSeparableSvmCase(40, 2, 0.5, 11);
  CheckServedSolveMatchesLocal(c.problem, c.points);
}

TEST(WireSolveTest, MinEnclosingBallServedSolveIsBitIdentical) {
  auto c = testing_util::MakeGaussianMebCase(40, 3, 13);
  CheckServedSolveMatchesLocal(c.problem, c.points);
}

TEST(WireSolveTest, ChebyshevCenterServedSolveIsBitIdentical) {
  auto c = testing_util::MakeChebyshevCase(40, 3, 17);
  CheckServedSolveMatchesLocal(c.problem, c.constraints);
}

TEST(WireSolveTest, LinfRegressionServedSolveIsBitIdentical) {
  auto c = testing_util::MakeLinfRegressionCase(40, 3, 19);
  CheckServedSolveMatchesLocal(c.problem, c.points);
}

TEST(WireSolveTest, EnclosingAnnulusServedSolveIsBitIdentical) {
  auto c = testing_util::MakeAnnulusCase(40, 2, 23);
  CheckServedSolveMatchesLocal(c.problem, c.points);
}

TEST(WireSolveTest, ErrorResponseCarriesTheStatusBack) {
  auto c = testing_util::MakeFeasibleLpCase(8, 2, 3);
  const uint64_t job_id = 77;
  auto payload = wire::EncodeSolveErrorResponsePayload(
      job_id, Status::Infeasible("empty region"));
  auto head = wire::PeekSolveResponseHead(payload);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->job_id, job_id);
  EXPECT_EQ(head->status.code(), StatusCode::kInfeasible);

  auto decoded = wire::DecodeSolveResponsePayload(c.problem, payload, job_id);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInfeasible);
  EXPECT_EQ(decoded.status().message(), "empty region");
}

// ----------------------------------------------- trace context and stats

TEST(WireSolveTest, TraceContextRoundTripsAndNeverChangesTheResponse) {
  auto c = testing_util::MakeFeasibleLpCase(24, 2, 5);
  const uint64_t job_id = 7;
  std::span<const Halfspace> sample(c.constraints.data(),
                                    c.constraints.size());
  wire::TraceContext ctx;
  ctx.trace_id = 0xDEADBEEFCAFEULL;
  ctx.parent_span = 0x1234;
  auto with = wire::EncodeSolveRequestPayload(job_id, c.problem, sample, ctx);
  auto without = wire::EncodeSolveRequestPayload(job_id, c.problem, sample);
  ASSERT_EQ(with.size(), without.size() + 16);  // Two u64s behind the flag.

  auto head = wire::PeekSolveRequestHead(with);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_TRUE(head->trace.present());
  EXPECT_EQ(head->trace.trace_id, ctx.trace_id);
  EXPECT_EQ(head->trace.parent_span, ctx.parent_span);

  // The context is observability-only: response bytes are bit-identical
  // with and without it (the determinism acceptance for tracing).
  auto served_with = wire::ServeSolveRequestPayload(with);
  auto served_without = wire::ServeSolveRequestPayload(without);
  ASSERT_TRUE(served_with.ok()) << served_with.status().ToString();
  ASSERT_TRUE(served_without.ok());
  EXPECT_EQ(*served_with, *served_without);

  // The request truncation sweep covers the trace block too.
  for (size_t len = 0; len < with.size(); ++len) {
    std::vector<uint8_t> prefix(with.begin(), with.begin() + len);
    EXPECT_FALSE(wire::ServeSolveRequestPayload(prefix).ok())
        << "request prefix of " << len << " bytes was served";
  }
}

TEST(WireStatsTest, StatsRequestRoundTripsAndRejectsTruncation) {
  for (bool metrics : {false, true}) {
    for (bool trace : {false, true}) {
      wire::StatsRequest in;
      in.include_metrics = metrics;
      in.include_trace = trace;
      auto payload = wire::EncodeStatsRequestPayload(in);
      auto out = wire::DecodeStatsRequestPayload(payload);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(out->include_metrics, metrics);
      EXPECT_EQ(out->include_trace, trace);
      for (size_t len = 0; len < payload.size(); ++len) {
        std::vector<uint8_t> prefix(payload.begin(), payload.begin() + len);
        EXPECT_FALSE(wire::DecodeStatsRequestPayload(prefix).ok());
      }
      auto padded = payload;
      padded.push_back(0);
      EXPECT_FALSE(wire::DecodeStatsRequestPayload(padded).ok());
    }
  }
  // Unknown flag bits are a protocol violation, not a silent ignore.
  BitWriter w;
  w.PutU8(0x04);
  EXPECT_FALSE(wire::DecodeStatsRequestPayload(w.Release()).ok());
}

TEST(WireStatsTest, StatsResponseRoundTripsAndRejectsTruncation) {
  wire::StatsResponse in;
  in.metrics_json = "{\"counters\":{\"wire.daemon.requests\":3}}";
  in.trace_json = "{\"traceEvents\":[]}";
  auto payload = wire::EncodeStatsResponsePayload(in);
  auto out = wire::DecodeStatsResponsePayload(payload);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->metrics_json, in.metrics_json);
  EXPECT_EQ(out->trace_json, in.trace_json);
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<uint8_t> prefix(payload.begin(), payload.begin() + len);
    EXPECT_FALSE(wire::DecodeStatsResponsePayload(prefix).ok())
        << "response prefix of " << len << " bytes decoded";
  }
  auto padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(wire::DecodeStatsResponsePayload(padded).ok());
}

// ------------------------------------------------------ adversarial input

TEST(WireAdversarialTest, RejectsHostileTraceFlags) {
  auto make = [](uint8_t flags, bool with_ids, uint64_t trace_id) {
    BitWriter w;
    w.PutU64(1);
    w.PutU8(static_cast<uint8_t>(wire::ProblemKind::kLinearProgram));
    w.PutU8(flags);
    if (with_ids) {
      w.PutU64(trace_id);
      w.PutU64(5);
    }
    return w.Release();
  };
  // Unknown flag bits.
  auto unknown = make(0x02, /*with_ids=*/false, 0);
  EXPECT_FALSE(wire::PeekSolveRequestHead(unknown).ok());
  EXPECT_FALSE(wire::ServeSolveRequestPayload(unknown).ok());
  // Flagged context with a zero (= "absent") trace id is self-contradictory.
  auto zero_id = make(wire::kRequestFlagTraceContext, /*with_ids=*/true, 0);
  EXPECT_FALSE(wire::PeekSolveRequestHead(zero_id).ok());
  EXPECT_FALSE(wire::ServeSolveRequestPayload(zero_id).ok());
}

TEST(WireAdversarialTest, RejectsUnknownProblemKind) {
  BitWriter w;
  w.PutU64(1);
  w.PutU8(99);  // No such ProblemKind.
  auto payload = w.Release();
  EXPECT_FALSE(wire::PeekSolveRequestHead(payload).ok());
  EXPECT_FALSE(wire::ServeSolveRequestPayload(payload).ok());
}

TEST(WireAdversarialTest, RejectsHostileConstraintCount) {
  // A count of 2^60 with zero constraint bytes behind it: the decoder must
  // refuse before reserving, not allocate 2^60 slots.
  auto c = testing_util::MakeFeasibleLpCase(8, 2, 3);
  BitWriter w;
  w.PutU64(1);
  w.PutU8(static_cast<uint8_t>(wire::ProblemKind::kLinearProgram));
  w.PutU8(0);  // Trace flags: none.
  wire::ProblemCodec<LinearProgram>::EncodeProblem(c.problem, &w);
  w.PutVarU64(uint64_t{1} << 60);
  auto served = wire::ServeSolveRequestPayload(w.Release());
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kOutOfRange);
}

TEST(WireAdversarialTest, RejectsHostileVectorDimension) {
  // Objective vector declaring 2^32-1 coordinates backed by nothing: the
  // dim-vs-remaining guard fires before the Vec is built.
  BitWriter w;
  w.PutU64(1);
  w.PutU8(static_cast<uint8_t>(wire::ProblemKind::kLinearProgram));
  w.PutU8(0);  // Trace flags: none.
  w.PutU32(0xFFFFFFFFu);
  auto served = wire::ServeSolveRequestPayload(w.Release());
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kOutOfRange);
}

TEST(WireAdversarialTest, RejectsZeroAndOversizedProblemDimension) {
  // The problem ctors CHECK-fail below dim 1; the decoder must return a
  // clean Status instead of tripping that assert on hostile input. Every
  // dim-carrying kind gets the same sweep — a new codec that forgets the
  // guard fails here.
  for (auto kind :
       {wire::ProblemKind::kMinEnclosingBall, wire::ProblemKind::kLinearSvm,
        wire::ProblemKind::kChebyshevCenter, wire::ProblemKind::kLinfRegression,
        wire::ProblemKind::kEnclosingAnnulus}) {
    for (uint32_t dim : {0u, wire::kMaxWireDim + 1}) {
      BitWriter w;
      w.PutU64(1);
      w.PutU8(static_cast<uint8_t>(kind));
      w.PutU8(0);  // Trace flags: none.
      w.PutU32(dim);
      for (int i = 0; i < 4 + 2 * (1 << 17); ++i) {
        w.PutU8(0);  // Plenty of bytes.
      }
      EXPECT_FALSE(wire::ServeSolveRequestPayload(w.Release()).ok())
          << "kind " << static_cast<int>(kind) << " dim " << dim
          << " was accepted";
    }
  }
}

TEST(WireAdversarialTest, RejectsHostileBasisCountInResponse) {
  auto c = testing_util::MakeFeasibleLpCase(8, 2, 3);
  auto local = c.problem.SolveBasis(
      std::span<const Halfspace>(c.constraints.data(), c.constraints.size()));
  const uint64_t job_id = 5;

  BitWriter w;
  w.PutU64(job_id);
  w.PutU8(0);
  w.PutString("");
  wire::ProblemCodec<LinearProgram>::EncodeValue(local.value, &w);
  w.PutVarU64(uint64_t{1} << 59);  // Hostile basis count, no bytes behind it.
  auto decoded =
      wire::DecodeSolveResponsePayload(c.problem, w.Release(), job_id);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
}

TEST(WireAdversarialTest, RejectsUnknownStatusCodeInResponse) {
  BitWriter w;
  w.PutU64(5);
  w.PutU8(250);  // Not a StatusCode.
  w.PutString("");
  auto c = testing_util::MakeFeasibleLpCase(8, 2, 3);
  EXPECT_FALSE(
      wire::DecodeSolveResponsePayload(c.problem, w.Release(), 5).ok());
  auto head_bytes = wire::EncodeSolveErrorResponsePayload(
      5, Status::Internal("x"));
  head_bytes[8] = 250;  // Corrupt the code byte behind the u64 job id.
  EXPECT_FALSE(wire::PeekSolveResponseHead(head_bytes).ok());
}

}  // namespace
}  // namespace lplow
