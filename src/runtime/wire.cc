#include "src/runtime/wire.h"

#include <string>

namespace lplow {
namespace runtime {
namespace wire {

namespace {

// Shared vector codec for configs and values (the constraint codecs stay
// with their problems). Same pre-allocation discipline as the constraint
// decoders: validate the declared dimension against the remaining bytes
// before constructing the Vec.
void EncodeVec(const Vec& v, BitWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.dim()));
  for (size_t i = 0; i < v.dim(); ++i) w->PutDouble(v[i]);
}

Result<Vec> DecodeVec(BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t dim, r->GetU32());
  if (dim > r->remaining() / 8) {
    return Status::OutOfRange("vector dimension exceeds payload");
  }
  Vec v(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    LPLOW_ASSIGN_OR_RETURN(v[i], r->GetDouble());
  }
  return v;
}

Result<uint32_t> DecodeProblemDim(BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t dim, r->GetU32());
  // The problem ctors CHECK dim >= 1; a decoder must return Status instead
  // of tripping an assert on hostile input.
  if (dim < 1 || dim > kMaxWireDim) {
    return Status::InvalidArgument("problem dimension out of range");
  }
  return dim;
}

// Shared SolverConfig codec for the LexLpSolver-backed problems (Chebyshev
// center, L-inf regression, enclosing annulus). Field order matches the
// LinearProgram codec's inline config block.
void EncodeSolverConfig(const SolverConfig& c, BitWriter* w) {
  w->PutDouble(c.feas_tol);
  w->PutDouble(c.tight_tol);
  w->PutDouble(c.lex_slack);
  w->PutDouble(c.pivot_tol);
  w->PutDouble(c.violation_tol);
  w->PutDouble(c.compare_tol);
  w->PutDouble(c.box_bound);
  w->PutU64(c.seed);
}

Result<SolverConfig> DecodeSolverConfig(BitReader* r) {
  SolverConfig c;
  LPLOW_ASSIGN_OR_RETURN(c.feas_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.tight_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.lex_slack, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.pivot_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.violation_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.compare_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.box_bound, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.seed, r->GetU64());
  return c;
}

}  // namespace

// ----------------------------------------------------------------- frames

const char* FrameKindName(FrameKind kind) {
  switch (kind) {
    case FrameKind::kHello:
      return "hello";
    case FrameKind::kSolveRequest:
      return "solve_request";
    case FrameKind::kSolveResponse:
      return "solve_response";
    case FrameKind::kError:
      return "error";
    case FrameKind::kPing:
      return "ping";
    case FrameKind::kPong:
      return "pong";
    case FrameKind::kBusy:
      return "busy";
    case FrameKind::kShutdown:
      return "shutdown";
    case FrameKind::kStatsRequest:
      return "stats_request";
    case FrameKind::kStatsResponse:
      return "stats_response";
  }
  return "unknown";
}

void EncodeFrameHeader(FrameKind kind, uint32_t payload_size, BitWriter* w) {
  w->PutU32(kMagic);
  w->PutU8(kWireVersion);
  w->PutU8(static_cast<uint8_t>(kind));
  w->PutU32(payload_size);
}

Result<FrameHeader> DecodeFrameHeader(BitReader* r, uint32_t max_payload) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t magic, r->GetU32());
  if (magic != kMagic) return Status::InvalidArgument("bad frame magic");
  FrameHeader header;
  LPLOW_ASSIGN_OR_RETURN(header.version, r->GetU8());
  if (header.version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(header.version) +
        " (this peer speaks " + std::to_string(kWireVersion) + ")");
  }
  LPLOW_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind < static_cast<uint8_t>(FrameKind::kHello) ||
      kind > static_cast<uint8_t>(FrameKind::kStatsResponse)) {
    return Status::InvalidArgument("unknown frame kind " +
                                   std::to_string(kind));
  }
  header.kind = static_cast<FrameKind>(kind);
  LPLOW_ASSIGN_OR_RETURN(header.payload_size, r->GetU32());
  if (header.payload_size > max_payload) {
    return Status::ResourceExhausted(
        "frame payload " + std::to_string(header.payload_size) +
        " exceeds limit " + std::to_string(max_payload));
  }
  return header;
}

std::vector<uint8_t> EncodeFrame(FrameKind kind,
                                 std::span<const uint8_t> payload) {
  BitWriter w;
  EncodeFrameHeader(kind, static_cast<uint32_t>(payload.size()), &w);
  w.PutBytes(payload.data(), payload.size());
  return w.Release();
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size,
                          uint32_t max_payload) {
  BitReader r(data, size);
  Frame frame;
  LPLOW_ASSIGN_OR_RETURN(frame.header, DecodeFrameHeader(&r, max_payload));
  if (r.remaining() < frame.header.payload_size) {
    return Status::OutOfRange("truncated frame payload");
  }
  frame.payload.resize(frame.header.payload_size);
  LPLOW_RETURN_IF_ERROR(
      r.GetBytes(frame.payload.data(), frame.payload.size()));
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after frame");
  }
  return frame;
}

// ------------------------------------------------------- control payloads

std::vector<uint8_t> EncodeHelloPayload(const Hello& hello) {
  BitWriter w;
  w.PutVarU64(hello.num_shards);
  w.PutVarU64(hello.max_inflight);
  return w.Release();
}

Result<Hello> DecodeHelloPayload(const std::vector<uint8_t>& payload) {
  BitReader r(payload);
  Hello hello;
  LPLOW_ASSIGN_OR_RETURN(hello.num_shards, r.GetVarU64());
  LPLOW_ASSIGN_OR_RETURN(hello.max_inflight, r.GetVarU64());
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes in hello");
  }
  return hello;
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status) {
  BitWriter w;
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Release();
}

Status DecodeErrorPayload(const std::vector<uint8_t>& payload) {
  BitReader r(payload);
  auto code = r.GetU8();
  if (!code.ok()) return code.status();
  auto message = r.GetString();
  if (!message.ok()) return message.status();
  if (*code == 0 || *code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("error payload carries unknown status");
  }
  return Status(static_cast<StatusCode>(*code), *std::move(message));
}

std::vector<uint8_t> EncodeStatsRequestPayload(const StatsRequest& request) {
  BitWriter w;
  uint8_t flags = 0;
  if (request.include_metrics) flags |= 0x01;
  if (request.include_trace) flags |= 0x02;
  w.PutU8(flags);
  return w.Release();
}

Result<StatsRequest> DecodeStatsRequestPayload(
    const std::vector<uint8_t>& payload) {
  BitReader r(payload);
  LPLOW_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
  if ((flags & ~uint8_t{0x03}) != 0) {
    return Status::InvalidArgument("stats request carries unknown flags");
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes in stats request");
  }
  StatsRequest request;
  request.include_metrics = (flags & 0x01) != 0;
  request.include_trace = (flags & 0x02) != 0;
  return request;
}

std::vector<uint8_t> EncodeStatsResponsePayload(const StatsResponse& response) {
  BitWriter w;
  w.PutString(response.metrics_json);
  w.PutString(response.trace_json);
  return w.Release();
}

Result<StatsResponse> DecodeStatsResponsePayload(
    const std::vector<uint8_t>& payload) {
  BitReader r(payload);
  StatsResponse response;
  LPLOW_ASSIGN_OR_RETURN(response.metrics_json, r.GetString());
  LPLOW_ASSIGN_OR_RETURN(response.trace_json, r.GetString());
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes in stats response");
  }
  return response;
}

// --------------------------------------------------------- solve payloads

namespace {

// Reads the shared request prefix — job id, problem kind, and the trace
// block — leaving `r` positioned at the problem config. Both the daemon's
// peek and the full serve go through here so they cannot disagree on the
// layout.
Result<SolveRequestHead> ReadSolveRequestPrefix(BitReader* r) {
  SolveRequestHead head;
  LPLOW_ASSIGN_OR_RETURN(head.job_id, r->GetU64());
  LPLOW_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind < static_cast<uint8_t>(ProblemKind::kLinearProgram) ||
      kind > static_cast<uint8_t>(ProblemKind::kEnclosingAnnulus)) {
    return Status::InvalidArgument("unknown problem kind " +
                                   std::to_string(kind));
  }
  head.problem = static_cast<ProblemKind>(kind);
  LPLOW_ASSIGN_OR_RETURN(uint8_t flags, r->GetU8());
  if ((flags & ~kRequestFlagTraceContext) != 0) {
    return Status::InvalidArgument("solve request carries unknown flags");
  }
  if ((flags & kRequestFlagTraceContext) != 0) {
    LPLOW_ASSIGN_OR_RETURN(head.trace.trace_id, r->GetU64());
    LPLOW_ASSIGN_OR_RETURN(head.trace.parent_span, r->GetU64());
    if (!head.trace.present()) {
      return Status::InvalidArgument("solve request trace id is zero");
    }
  }
  return head;
}

}  // namespace

Result<SolveRequestHead> PeekSolveRequestHead(
    const std::vector<uint8_t>& payload) {
  BitReader r(payload);
  return ReadSolveRequestPrefix(&r);
}

Result<SolveResponseHead> PeekSolveResponseHead(
    const std::vector<uint8_t>& payload) {
  BitReader r(payload);
  SolveResponseHead head;
  LPLOW_ASSIGN_OR_RETURN(head.job_id, r.GetU64());
  LPLOW_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  LPLOW_ASSIGN_OR_RETURN(std::string message, r.GetString());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("solve response carries unknown status");
  }
  head.status = code == 0
                    ? Status::OK()
                    : Status(static_cast<StatusCode>(code), std::move(message));
  return head;
}

std::vector<uint8_t> EncodeSolveErrorResponsePayload(uint64_t job_id,
                                                     const Status& status) {
  BitWriter w;
  w.PutU64(job_id);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Release();
}

// ---------------------------------------------------------- problem codecs

void ProblemCodec<LinearProgram>::EncodeProblem(const LinearProgram& p,
                                                BitWriter* w) {
  EncodeVec(p.objective(), w);
  const SolverConfig& c = p.solver_config();
  w->PutDouble(c.feas_tol);
  w->PutDouble(c.tight_tol);
  w->PutDouble(c.lex_slack);
  w->PutDouble(c.pivot_tol);
  w->PutDouble(c.violation_tol);
  w->PutDouble(c.compare_tol);
  w->PutDouble(c.box_bound);
  w->PutU64(c.seed);
}

Result<LinearProgram> ProblemCodec<LinearProgram>::DecodeProblem(
    BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(Vec objective, DecodeVec(r));
  if (objective.dim() < 1 || objective.dim() > kMaxWireDim) {
    return Status::InvalidArgument("problem dimension out of range");
  }
  SolverConfig c;
  LPLOW_ASSIGN_OR_RETURN(c.feas_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.tight_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.lex_slack, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.pivot_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.violation_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.compare_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.box_bound, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.seed, r->GetU64());
  return LinearProgram(std::move(objective), c);
}

void ProblemCodec<LinearProgram>::EncodeValue(const LinearProgram::Value& v,
                                              BitWriter* w) {
  w->PutU8(v.feasible ? 1 : 0);
  EncodeVec(v.point, w);
  w->PutDouble(v.objective);
}

Result<LinearProgram::Value> ProblemCodec<LinearProgram>::DecodeValue(
    BitReader* r) {
  LinearProgram::Value v;
  LPLOW_ASSIGN_OR_RETURN(uint8_t feasible, r->GetU8());
  v.feasible = feasible != 0;
  LPLOW_ASSIGN_OR_RETURN(v.point, DecodeVec(r));
  LPLOW_ASSIGN_OR_RETURN(v.objective, r->GetDouble());
  return v;
}

void ProblemCodec<LinearSvm>::EncodeProblem(const LinearSvm& p,
                                            BitWriter* w) {
  w->PutU32(static_cast<uint32_t>(p.dim()));
  const LinearSvm::Config& c = p.config();
  w->PutDouble(c.solver.kkt_tol);
  w->PutVarU64(c.solver.max_epochs);
  w->PutDouble(c.solver.infeasible_norm_cap);
  w->PutDouble(c.solver.active_tol);
  w->PutDouble(c.margin_tol);
  w->PutDouble(c.value_tol);
}

Result<LinearSvm> ProblemCodec<LinearSvm>::DecodeProblem(BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t dim, DecodeProblemDim(r));
  LinearSvm::Config c;
  LPLOW_ASSIGN_OR_RETURN(c.solver.kkt_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(uint64_t max_epochs, r->GetVarU64());
  c.solver.max_epochs = static_cast<size_t>(max_epochs);
  LPLOW_ASSIGN_OR_RETURN(c.solver.infeasible_norm_cap, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.solver.active_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.margin_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.value_tol, r->GetDouble());
  return LinearSvm(dim, c);
}

void ProblemCodec<LinearSvm>::EncodeValue(const LinearSvm::Value& v,
                                          BitWriter* w) {
  w->PutU8(v.separable ? 1 : 0);
  w->PutDouble(v.norm_squared);
  EncodeVec(v.u, w);
}

Result<LinearSvm::Value> ProblemCodec<LinearSvm>::DecodeValue(BitReader* r) {
  LinearSvm::Value v;
  LPLOW_ASSIGN_OR_RETURN(uint8_t separable, r->GetU8());
  v.separable = separable != 0;
  LPLOW_ASSIGN_OR_RETURN(v.norm_squared, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(v.u, DecodeVec(r));
  return v;
}

void ProblemCodec<MinEnclosingBall>::EncodeProblem(const MinEnclosingBall& p,
                                                   BitWriter* w) {
  w->PutU32(static_cast<uint32_t>(p.dim()));
  const MinEnclosingBall::Config& c = p.config();
  w->PutDouble(c.solver.tol);
  w->PutU64(c.solver.seed);
  w->PutDouble(c.contain_tol);
  w->PutDouble(c.value_tol);
}

Result<MinEnclosingBall> ProblemCodec<MinEnclosingBall>::DecodeProblem(
    BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t dim, DecodeProblemDim(r));
  MinEnclosingBall::Config c;
  LPLOW_ASSIGN_OR_RETURN(c.solver.tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.solver.seed, r->GetU64());
  LPLOW_ASSIGN_OR_RETURN(c.contain_tol, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(c.value_tol, r->GetDouble());
  return MinEnclosingBall(dim, c);
}

void ProblemCodec<MinEnclosingBall>::EncodeValue(
    const MinEnclosingBall::Value& v, BitWriter* w) {
  EncodeVec(v.ball.center, w);
  w->PutDouble(v.ball.radius);
}

Result<MinEnclosingBall::Value> ProblemCodec<MinEnclosingBall>::DecodeValue(
    BitReader* r) {
  MinEnclosingBall::Value v;
  LPLOW_ASSIGN_OR_RETURN(v.ball.center, DecodeVec(r));
  LPLOW_ASSIGN_OR_RETURN(v.ball.radius, r->GetDouble());
  return v;
}

void ProblemCodec<ChebyshevCenter>::EncodeProblem(const ChebyshevCenter& p,
                                                  BitWriter* w) {
  w->PutU32(static_cast<uint32_t>(p.dim()));
  EncodeSolverConfig(p.solver_config(), w);
}

Result<ChebyshevCenter> ProblemCodec<ChebyshevCenter>::DecodeProblem(
    BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t dim, DecodeProblemDim(r));
  LPLOW_ASSIGN_OR_RETURN(SolverConfig c, DecodeSolverConfig(r));
  return ChebyshevCenter(dim, c);
}

void ProblemCodec<ChebyshevCenter>::EncodeValue(
    const ChebyshevCenter::Value& v, BitWriter* w) {
  w->PutU8(v.feasible ? 1 : 0);
  EncodeVec(v.center, w);
  w->PutDouble(v.radius);
}

Result<ChebyshevCenter::Value> ProblemCodec<ChebyshevCenter>::DecodeValue(
    BitReader* r) {
  ChebyshevCenter::Value v;
  LPLOW_ASSIGN_OR_RETURN(uint8_t feasible, r->GetU8());
  v.feasible = feasible != 0;
  LPLOW_ASSIGN_OR_RETURN(v.center, DecodeVec(r));
  LPLOW_ASSIGN_OR_RETURN(v.radius, r->GetDouble());
  return v;
}

void ProblemCodec<LinfRegression>::EncodeProblem(const LinfRegression& p,
                                                 BitWriter* w) {
  w->PutU32(static_cast<uint32_t>(p.dim()));
  EncodeSolverConfig(p.solver_config(), w);
}

Result<LinfRegression> ProblemCodec<LinfRegression>::DecodeProblem(
    BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t dim, DecodeProblemDim(r));
  LPLOW_ASSIGN_OR_RETURN(SolverConfig c, DecodeSolverConfig(r));
  return LinfRegression(dim, c);
}

void ProblemCodec<LinfRegression>::EncodeValue(const LinfRegression::Value& v,
                                               BitWriter* w) {
  w->PutU8(v.empty ? 1 : 0);
  w->PutU8(v.feasible ? 1 : 0);
  EncodeVec(v.w, w);
  w->PutDouble(v.t);
}

Result<LinfRegression::Value> ProblemCodec<LinfRegression>::DecodeValue(
    BitReader* r) {
  LinfRegression::Value v;
  LPLOW_ASSIGN_OR_RETURN(uint8_t empty, r->GetU8());
  v.empty = empty != 0;
  LPLOW_ASSIGN_OR_RETURN(uint8_t feasible, r->GetU8());
  v.feasible = feasible != 0;
  LPLOW_ASSIGN_OR_RETURN(v.w, DecodeVec(r));
  LPLOW_ASSIGN_OR_RETURN(v.t, r->GetDouble());
  return v;
}

void ProblemCodec<EnclosingAnnulus>::EncodeProblem(const EnclosingAnnulus& p,
                                                   BitWriter* w) {
  w->PutU32(static_cast<uint32_t>(p.dim()));
  EncodeSolverConfig(p.solver_config(), w);
}

Result<EnclosingAnnulus> ProblemCodec<EnclosingAnnulus>::DecodeProblem(
    BitReader* r) {
  LPLOW_ASSIGN_OR_RETURN(uint32_t dim, DecodeProblemDim(r));
  LPLOW_ASSIGN_OR_RETURN(SolverConfig c, DecodeSolverConfig(r));
  return EnclosingAnnulus(dim, c);
}

void ProblemCodec<EnclosingAnnulus>::EncodeValue(
    const EnclosingAnnulus::Value& v, BitWriter* w) {
  w->PutU8(v.empty ? 1 : 0);
  w->PutU8(v.feasible ? 1 : 0);
  EncodeVec(v.center, w);
  w->PutDouble(v.u);
  w->PutDouble(v.l);
}

Result<EnclosingAnnulus::Value> ProblemCodec<EnclosingAnnulus>::DecodeValue(
    BitReader* r) {
  EnclosingAnnulus::Value v;
  LPLOW_ASSIGN_OR_RETURN(uint8_t empty, r->GetU8());
  v.empty = empty != 0;
  LPLOW_ASSIGN_OR_RETURN(uint8_t feasible, r->GetU8());
  v.feasible = feasible != 0;
  LPLOW_ASSIGN_OR_RETURN(v.center, DecodeVec(r));
  LPLOW_ASSIGN_OR_RETURN(v.u, r->GetDouble());
  LPLOW_ASSIGN_OR_RETURN(v.l, r->GetDouble());
  return v;
}

// ------------------------------------------------------------ daemon path

namespace {

/// Decodes problem + constraints from `r` (positioned after the request
/// prefix), solves, and encodes the response — each stage under its own
/// daemon span when a recorder is attached. The one template the daemon's
/// per-kind switch instantiates for each ProblemKind.
template <WireSolvable P>
Result<std::vector<uint8_t>> ServeTyped(BitReader* r, uint64_t job_id,
                                        const ServeOptions& options) {
  std::vector<typename P::Constraint> constraints;
  Result<P> problem = Status::Internal("decode did not run");
  {
    trace::TraceSpan span(options.trace, "daemon.decode", options.parent);
    span.Arg("job_id", job_id);
    problem = ProblemCodec<P>::DecodeProblem(r);
    if (!problem.ok()) return problem.status();
    LPLOW_ASSIGN_OR_RETURN(uint64_t count, r->GetVarU64());
    // Every serialized constraint is at least one byte, so a count beyond
    // the remaining bytes cannot be honest — reject before reserving.
    if (count > r->remaining()) {
      return Status::OutOfRange("constraint count exceeds payload");
    }
    constraints.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      LPLOW_ASSIGN_OR_RETURN(auto c, problem->DeserializeConstraint(r));
      constraints.push_back(std::move(c));
    }
    if (!r->exhausted()) {
      return Status::InvalidArgument("trailing bytes in solve request");
    }
    span.Arg("constraints", constraints.size());
  }
  BasisResult<typename P::Value, typename P::Constraint> result;
  {
    trace::TraceSpan span(options.trace, "daemon.solve", options.parent);
    span.Arg("job_id", job_id);
    span.Arg("constraints", constraints.size());
    result = problem->SolveBasis(
        std::span<const typename P::Constraint>(constraints));
  }
  trace::TraceSpan span(options.trace, "daemon.encode", options.parent);
  span.Arg("job_id", job_id);
  std::vector<uint8_t> response =
      EncodeSolveResponsePayload(job_id, *problem, result);
  span.Arg("bytes", response.size());
  return response;
}

}  // namespace

Result<std::vector<uint8_t>> ServeSolveRequestPayload(
    const std::vector<uint8_t>& payload, const ServeOptions& options) {
  BitReader r(payload);
  LPLOW_ASSIGN_OR_RETURN(SolveRequestHead head,
                         ReadSolveRequestPrefix(&r));
  switch (head.problem) {
    case ProblemKind::kLinearProgram:
      return ServeTyped<LinearProgram>(&r, head.job_id, options);
    case ProblemKind::kLinearSvm:
      return ServeTyped<LinearSvm>(&r, head.job_id, options);
    case ProblemKind::kMinEnclosingBall:
      return ServeTyped<MinEnclosingBall>(&r, head.job_id, options);
    case ProblemKind::kChebyshevCenter:
      return ServeTyped<ChebyshevCenter>(&r, head.job_id, options);
    case ProblemKind::kLinfRegression:
      return ServeTyped<LinfRegression>(&r, head.job_id, options);
    case ProblemKind::kEnclosingAnnulus:
      return ServeTyped<EnclosingAnnulus>(&r, head.job_id, options);
  }
  return Status::InvalidArgument("unknown problem kind");
}

}  // namespace wire
}  // namespace runtime
}  // namespace lplow
