// The lplow wire protocol: versioned, length-prefixed frames carrying
// serialized solve jobs and results between an engine client and an
// `lp_served` daemon (docs/runtime.md §"Wire protocol").
//
// Layout of one frame (all integers little-endian via util/bit_stream):
//
//   u32 magic   "LPW1" (0x3157504C)   — stream resync / protocol check
//   u8  version kWireVersion          — the one version a peer accepts
//   u8  kind    FrameKind             — what the payload is
//   u32 size    payload byte count    — bounded by max_payload
//   u8  payload[size]
//
// Versioning rule: a peer accepts exactly kWireVersion and rejects any
// other header version with a clean Status. Any change to a frame or
// payload layout bumps kWireVersion instead of adding a per-version decode
// branch.
//
// Payload formats are per-kind binary codecs in the style the repo already
// uses for its protocol messages: every field is encoded with BitWriter
// primitives, and every decoder validates declared lengths against the
// remaining bytes BEFORE allocating, so untrusted input fails with a clean
// Status — never UB, never an allocation bomb (tests/wire_test.cc drives
// truncations at every byte and adversarial lengths under ASan/UBSan).
//
// Determinism contract: doubles cross the wire as their raw 8-byte images,
// so a remote SolveBasis result decodes bit-identical to the same solve run
// in-process — the transcript-identity guarantee the socket backend is
// pinned against (tests/socket_backend_test.cc).

#ifndef LPLOW_RUNTIME_WIRE_H_
#define LPLOW_RUNTIME_WIRE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/core/lp_type.h"
#include "src/problems/chebyshev_center.h"
#include "src/problems/enclosing_annulus.h"
#include "src/problems/linear_program.h"
#include "src/problems/linear_svm.h"
#include "src/problems/linf_regression.h"
#include "src/problems/min_enclosing_ball.h"
#include "src/runtime/trace.h"
#include "src/util/bit_stream.h"
#include "src/util/status.h"

namespace lplow {
namespace runtime {
namespace wire {

/// Bytes "LPW1" on the wire (read back as a little-endian u32).
inline constexpr uint32_t kMagic = 0x3157504Cu;
/// The one version this peer speaks, stamps on every frame, and accepts.
/// Bumped on any frame or payload change (the versioning rule in
/// docs/runtime.md).
inline constexpr uint8_t kWireVersion = 2;
/// Fixed frame header size: magic + version + kind + payload size.
inline constexpr size_t kFrameHeaderBytes = 10;
/// Default ceiling on one frame's payload. A peer declaring more is
/// malformed or hostile; the frame is rejected before any allocation.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class FrameKind : uint8_t {
  /// Daemon -> client greeting sent on connect: varint num_shards,
  /// varint max_inflight (0 = unlimited).
  kHello = 1,
  /// Client -> daemon solve job (SolveRequest payload).
  kSolveRequest = 2,
  /// Daemon -> client result (SolveResponse payload; may carry an error
  /// status for a job that decoded but could not be served).
  kSolveResponse = 3,
  /// Protocol-level failure (Error payload: the Status); the sender closes
  /// the connection after writing it.
  kError = 4,
  /// Liveness probe; the daemon answers kPong with an empty payload.
  kPing = 5,
  kPong = 6,
  /// Admission-control rejection: the daemon is at max_inflight. Empty
  /// payload; the request was NOT queued — retry elsewhere or back off.
  kBusy = 7,
  /// Client asks the daemon to drain and exit (honored only when the
  /// daemon was started with allow_remote_shutdown).
  kShutdown = 8,
  /// Client asks for the daemon's observability state (StatsRequest
  /// payload: which pieces to include).
  kStatsRequest = 9,
  /// The daemon's MetricsRegistry JSON and, when requested and available,
  /// its Chrome trace JSON (StatsResponse payload).
  kStatsResponse = 10,
};

/// Stable lower-snake name of a frame kind ("solve_request", "busy", ...),
/// used as the metric-key suffix of the per-kind wire byte counters
/// (`wire.client.tx_bytes.<name>`); "unknown" for out-of-range values.
const char* FrameKindName(FrameKind kind);

struct FrameHeader {
  uint8_t version = kWireVersion;
  FrameKind kind = FrameKind::kError;
  uint32_t payload_size = 0;
};

/// Appends the 10-byte header to `w`, stamped with kWireVersion.
void EncodeFrameHeader(FrameKind kind, uint32_t payload_size, BitWriter* w);

/// Decodes and validates a header: magic, version == kWireVersion, a known
/// kind, and payload_size <= max_payload. Fails with a clean Status on
/// anything else.
Result<FrameHeader> DecodeFrameHeader(BitReader* r,
                                      uint32_t max_payload = kMaxFramePayload);

struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

/// One fully framed message: header + payload bytes.
std::vector<uint8_t> EncodeFrame(FrameKind kind,
                                 std::span<const uint8_t> payload);

/// Whole-buffer decode (the socket layer reads header and payload
/// separately; this form serves tests and in-memory transports). The buffer
/// must contain exactly one frame — trailing bytes are an error.
Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          uint32_t max_payload = kMaxFramePayload);

// ---------------------------------------------------------------- payloads

/// Job kinds the daemon can solve. One byte on the wire; every LP-type
/// problem the repo ships is solvable remotely.
enum class ProblemKind : uint8_t {
  kLinearProgram = 1,
  kLinearSvm = 2,
  kMinEnclosingBall = 3,
  kChebyshevCenter = 4,
  kLinfRegression = 5,
  kEnclosingAnnulus = 6,
};

/// Ceiling on a decoded problem dimension. The repo's problems are
/// low-dimensional by design (d ~ 2..10); anything larger in a request is
/// hostile input, and the ctors CHECK-fail on absurd values rather than
/// returning Status, so the decoder enforces the range first.
inline constexpr uint32_t kMaxWireDim = 1u << 16;

/// Hello payload.
struct Hello {
  uint64_t num_shards = 0;
  uint64_t max_inflight = 0;  // 0 = unlimited.
};
std::vector<uint8_t> EncodeHelloPayload(const Hello& hello);
Result<Hello> DecodeHelloPayload(const std::vector<uint8_t>& payload);

/// Error payload: the Status that aborted the exchange.
std::vector<uint8_t> EncodeErrorPayload(const Status& status);
/// Returns the carried (non-OK) status, or the decode failure itself.
Status DecodeErrorPayload(const std::vector<uint8_t>& payload);

/// Client-side trace identity riding inside a SolveRequest: the daemon
/// parents its spans under (trace_id, parent_span) so one Chrome trace
/// shows the solve crossing the wire. All-zero = absent.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  bool present() const { return trace_id != 0; }
};

/// Bit flags of the SolveRequest trace byte. Unknown bits are rejected.
inline constexpr uint8_t kRequestFlagTraceContext = 0x01;

/// StatsRequest payload: which observability pieces to return.
struct StatsRequest {
  bool include_metrics = true;
  bool include_trace = false;
};
std::vector<uint8_t> EncodeStatsRequestPayload(const StatsRequest& request);
Result<StatsRequest> DecodeStatsRequestPayload(
    const std::vector<uint8_t>& payload);

/// StatsResponse payload: the daemon's MetricsRegistry JSON plus its
/// Chrome trace JSON (empty string when not requested or not recorded).
struct StatsResponse {
  std::string metrics_json;
  std::string trace_json;
};
std::vector<uint8_t> EncodeStatsResponsePayload(const StatsResponse& response);
Result<StatsResponse> DecodeStatsResponsePayload(
    const std::vector<uint8_t>& payload);

/// The routing prefix of a SolveRequest payload: enough for the daemon to
/// pick a shard (and echo the job id on errors) without a full decode,
/// plus the trace context when present.
struct SolveRequestHead {
  uint64_t job_id = 0;
  ProblemKind problem = ProblemKind::kLinearProgram;
  TraceContext trace;
};
Result<SolveRequestHead> PeekSolveRequestHead(
    const std::vector<uint8_t>& payload);

/// The status prefix of a SolveResponse payload: job id + status, readable
/// without knowing the problem type (the client uses it to classify server
/// errors before the engine decodes the basis).
struct SolveResponseHead {
  uint64_t job_id = 0;
  Status status;
};
Result<SolveResponseHead> PeekSolveResponseHead(
    const std::vector<uint8_t>& payload);

/// Per-kind codec: how one problem type and its f-value cross the wire.
/// Specialized for every LP-type problem the daemon serves; the primary
/// template is intentionally undefined so an unsupported problem fails to
/// compile (the engine gates on WireSolvable and falls back to local
/// dispatch instead).
template <typename P>
struct ProblemCodec;

template <>
struct ProblemCodec<LinearProgram> {
  static constexpr ProblemKind kKind = ProblemKind::kLinearProgram;
  static void EncodeProblem(const LinearProgram& p, BitWriter* w);
  static Result<LinearProgram> DecodeProblem(BitReader* r);
  static void EncodeValue(const LinearProgram::Value& v, BitWriter* w);
  static Result<LinearProgram::Value> DecodeValue(BitReader* r);
};

template <>
struct ProblemCodec<LinearSvm> {
  static constexpr ProblemKind kKind = ProblemKind::kLinearSvm;
  static void EncodeProblem(const LinearSvm& p, BitWriter* w);
  static Result<LinearSvm> DecodeProblem(BitReader* r);
  static void EncodeValue(const LinearSvm::Value& v, BitWriter* w);
  static Result<LinearSvm::Value> DecodeValue(BitReader* r);
};

template <>
struct ProblemCodec<MinEnclosingBall> {
  static constexpr ProblemKind kKind = ProblemKind::kMinEnclosingBall;
  static void EncodeProblem(const MinEnclosingBall& p, BitWriter* w);
  static Result<MinEnclosingBall> DecodeProblem(BitReader* r);
  static void EncodeValue(const MinEnclosingBall::Value& v, BitWriter* w);
  static Result<MinEnclosingBall::Value> DecodeValue(BitReader* r);
};

template <>
struct ProblemCodec<ChebyshevCenter> {
  static constexpr ProblemKind kKind = ProblemKind::kChebyshevCenter;
  static void EncodeProblem(const ChebyshevCenter& p, BitWriter* w);
  static Result<ChebyshevCenter> DecodeProblem(BitReader* r);
  static void EncodeValue(const ChebyshevCenter::Value& v, BitWriter* w);
  static Result<ChebyshevCenter::Value> DecodeValue(BitReader* r);
};

template <>
struct ProblemCodec<LinfRegression> {
  static constexpr ProblemKind kKind = ProblemKind::kLinfRegression;
  static void EncodeProblem(const LinfRegression& p, BitWriter* w);
  static Result<LinfRegression> DecodeProblem(BitReader* r);
  static void EncodeValue(const LinfRegression::Value& v, BitWriter* w);
  static Result<LinfRegression::Value> DecodeValue(BitReader* r);
};

template <>
struct ProblemCodec<EnclosingAnnulus> {
  static constexpr ProblemKind kKind = ProblemKind::kEnclosingAnnulus;
  static void EncodeProblem(const EnclosingAnnulus& p, BitWriter* w);
  static Result<EnclosingAnnulus> DecodeProblem(BitReader* r);
  static void EncodeValue(const EnclosingAnnulus::Value& v, BitWriter* w);
  static Result<EnclosingAnnulus::Value> DecodeValue(BitReader* r);
};

/// True for problem types with a wire codec — the gate the engine checks
/// before attempting serialized dispatch.
template <typename P>
concept WireSolvable = requires { ProblemCodec<P>::kKind; };

/// SolveRequest payload:
///   u64 job_id, u8 problem_kind,
///   u8 trace_flags, [u64 trace_id, u64 parent_span]  -- iff flagged,
///   problem config (per-kind), varint constraint_count, constraints
///   (problem wire format).
template <WireSolvable P>
std::vector<uint8_t> EncodeSolveRequestPayload(
    uint64_t job_id, const P& problem,
    std::span<const typename P::Constraint> sample, TraceContext trace = {}) {
  BitWriter w;
  w.PutU64(job_id);
  w.PutU8(static_cast<uint8_t>(ProblemCodec<P>::kKind));
  if (trace.present()) {
    w.PutU8(kRequestFlagTraceContext);
    w.PutU64(trace.trace_id);
    w.PutU64(trace.parent_span);
  } else {
    w.PutU8(0);
  }
  ProblemCodec<P>::EncodeProblem(problem, &w);
  w.PutVarU64(sample.size());
  for (const auto& c : sample) problem.SerializeConstraint(c, &w);
  return w.Release();
}

/// SolveResponse payload:
///   u64 job_id, u8 status_code, string status_message,
///   [value (per-kind), varint basis_count, constraints]  -- iff OK.
template <WireSolvable P>
std::vector<uint8_t> EncodeSolveResponsePayload(
    uint64_t job_id, const P& problem,
    const BasisResult<typename P::Value, typename P::Constraint>& result) {
  BitWriter w;
  w.PutU64(job_id);
  w.PutU8(0);       // StatusCode::kOk.
  w.PutString("");  // Empty message on success.
  ProblemCodec<P>::EncodeValue(result.value, &w);
  w.PutVarU64(result.basis.size());
  for (const auto& c : result.basis) problem.SerializeConstraint(c, &w);
  return w.Release();
}

/// SolveResponse payload carrying an error instead of a result (the job
/// decoded far enough to know its id but could not be served).
std::vector<uint8_t> EncodeSolveErrorResponsePayload(uint64_t job_id,
                                                     const Status& status);

/// Decodes a SolveResponse payload back into the basis result. Fails when
/// the payload is malformed, echoes a different job id, or carries a non-OK
/// status (returned as-is).
template <WireSolvable P>
Result<BasisResult<typename P::Value, typename P::Constraint>>
DecodeSolveResponsePayload(const P& problem,
                           const std::vector<uint8_t>& payload,
                           uint64_t expected_job_id) {
  BitReader r(payload);
  LPLOW_ASSIGN_OR_RETURN(uint64_t job_id, r.GetU64());
  if (job_id != expected_job_id) {
    return Status::Internal("solve response for a different job id");
  }
  LPLOW_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  LPLOW_ASSIGN_OR_RETURN(std::string message, r.GetString());
  if (code != 0) {
    if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
      return Status::InvalidArgument("solve response carries unknown status");
    }
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  BasisResult<typename P::Value, typename P::Constraint> result;
  LPLOW_ASSIGN_OR_RETURN(result.value, ProblemCodec<P>::DecodeValue(&r));
  LPLOW_ASSIGN_OR_RETURN(uint64_t count, r.GetVarU64());
  // Every serialized constraint is at least one byte, so a count beyond the
  // remaining bytes cannot be honest — reject before reserving.
  if (count > r.remaining()) {
    return Status::OutOfRange("basis count exceeds payload");
  }
  result.basis.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    LPLOW_ASSIGN_OR_RETURN(auto c, problem.DeserializeConstraint(&r));
    result.basis.push_back(std::move(c));
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes in solve response");
  }
  return result;
}

/// Knobs for serving one request payload: optionally, a recorder + parent
/// under which the daemon-side decode/solve/encode spans are recorded.
struct ServeOptions {
  trace::TraceRecorder* trace = nullptr;
  trace::SpanContext parent;
};

/// The daemon's whole request handler: decodes the per-kind job, runs
/// SolveBasis, and returns the encoded SolveResponse payload. A decode
/// failure comes back as the Status for the caller to frame (as an error
/// response when the job id is known, as kError otherwise). Deterministic:
/// the same request bytes always produce the same response bytes — tracing
/// observes the serve but never alters it.
Result<std::vector<uint8_t>> ServeSolveRequestPayload(
    const std::vector<uint8_t>& payload, const ServeOptions& options = {});

}  // namespace wire
}  // namespace runtime
}  // namespace lplow

#endif  // LPLOW_RUNTIME_WIRE_H_
