// lplow_bench: the repository's end-to-end benchmark program.
//
//   lplow_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--out DIR] [--git DESCRIBE]
//   lplow_bench --quick        (every workload for ~1 s, correctness only)
//
// One process runs one workload (README.md in this directory has the
// tables). It builds its inputs from --seed, sets up the system (median of
// several set-ups), measures for about --seconds, checks every output, and
// prints each metric with its unit. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A results file with the
// machine facts goes to --out.
//
// Only public library entry points are called: the model solvers,
// workload::RecordWorkload, ShardedSolverService::Submit,
// wire::ServeSolveRequestPayload, SolveDaemon / SocketSolveBackend,
// MetricsRegistry and trace::TraceRecorder. Google Benchmark is not used:
// it cannot drive an open-loop schedule or keep raw latency samples.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/engine/scan_kernel.h"
#include "src/models/coordinator/coordinator_solver.h"
#include "src/models/mpc/mpc_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/lp_client.h"
#include "src/runtime/lp_served.h"
#include "src/runtime/metrics.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/runtime/thread_pool.h"
#include "src/runtime/trace.h"
#include "src/runtime/wire.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

#ifndef LPLOW_BENCH_COMPILER
#define LPLOW_BENCH_COMPILER "unknown"
#endif
#ifndef LPLOW_BENCH_FLAGS
#define LPLOW_BENCH_FLAGS "unknown"
#endif
#ifndef LPLOW_BENCH_BUILD_TYPE
#define LPLOW_BENCH_BUILD_TYPE "unknown"
#endif

namespace lplow {
namespace {

namespace rt = runtime;
namespace trace = runtime::trace;
namespace wire = runtime::wire;

// Load shape shared by every workload: one process, at most kBusyThreads
// threads doing solver work at once (the reference machine has 4 cores).
constexpr size_t kBusyThreads = 4;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 3;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
uint64_t NsToUs(int64_t ns) { return static_cast<uint64_t>(ns / 1000); }
double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
// Every generator draws from SplitMix64(seed, stream, index), so one seed
// fixes every input and no two inputs share a stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  return SplitMix64(SplitMix64(seed ^ (stream << 32)) + index);
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}
uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}
uint64_t FoldHash(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Nearest-rank percentile of raw samples (exact, no bucketing).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}
double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}
double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

struct ProcessUsage {
  double cpu_s = 0;
  double invol_ctx = 0;
  double peak_rss_mb = 0;

  static ProcessUsage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcessUsage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.invol_ctx = static_cast<double>(ru.ru_nivcsw);
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB.
    return u;
  }
};

/// Milliseconds one fixed single-thread arithmetic loop takes (median of
/// five). Recorded at the start and end of every run: a shared virtual
/// machine can drift in speed by 10-30% over minutes, and this separates a
/// slow machine from a slow program when reading two runs side by side.
double CalibrationMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    volatile double x = 1;
    for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001 + 1e-9;
    ms.push_back(NsToMs(NowNs() - t0));
  }
  return Percentile(ms, 0.5);
}

std::string ReadLoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string line;
  std::getline(in, line);
  return line.empty() ? "unknown" : line;
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// End-to-end metrics, one set for every workload (README.md defines what
// each one reads on a solve workload and on a serve workload).
struct EndToEnd {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double lat_p50_ms = 0;
  double lat_p90_ms = 0;
  double ops_per_s = 0;
  double kb_per_op = 0;

  std::vector<Metric> List() const {
    return {{"setup_s", setup_s, "s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"lat_p50_ms", lat_p50_ms, "ms"},
            {"lat_p90_ms", lat_p90_ms, "ms"},
            {"ops_per_s", ops_per_s, "1/s"},
            {"kb_per_op", kb_per_op, "KB"}};
  }
};

// Spans folded into trace.self_ms.<span>: the bench's own spans around each
// public call plus the spans the library records through the options.
constexpr const char* kSpanNames[] = {
    "bench.solve",      "bench.request",        "bench.queue_wait",
    "bench.serve",      "bench.rtt",            "engine.run",
    "engine.iteration", "engine.violator_scan", "engine.basis_solve",
    "service.queue_wait", "service.execute",    "client.solve",
    "client.pool_wait", "client.rtt",           "daemon.request",
    "daemon.decode",    "daemon.solve",         "daemon.encode"};

// Per-layer metrics. Every workload reports every field; a layer a
// workload does not exercise reads 0.
struct Layers {
  // engine.* — per solve, from MetricsRegistry::Global() deltas.
  double iterations = 0, ok_iter_ratio = 0;
  double scan_ms = 0, scan_share = 0, scan_ns_per_row = 0,
         scan_gbps_computed = 0, fused_ratio = 0;
  double basis_ms = 0, basis_share = 0, basis_ms_per_call = 0,
         oversized_solves = 0;
  double other_ms = 0, resample_kb = 0;
  // models.*
  double rounds_per_solve = 0, sample_size = 0, coord_messages = 0;
  double mpc_max_load_kb = 0, mpc_machines = 0, mpc_tree_depth = 0;
  // process.*
  double cpu_s = 0, cpu_util = 0, invol_ctx_switches = 0;
  // runtime.service.*
  double queue_wait_ms_p50 = 0, queue_wait_ms_p99 = 0, exec_ms_p50 = 0,
         exec_ms_p99 = 0, busy_share = 0, backlog_max = 0;
  // problems.<kind>.*, indexed by wire::ProblemKind value - 1.
  double kind_exec_ms_mean[6] = {}, kind_cpu_share[6] = {};
  // runtime.wire.*
  double req_kb_mean = 0, resp_kb_mean = 0;
  // runtime.net.*
  double rtt_ms_p50 = 0, rtt_ms_p99 = 0, transport_ms_mean = 0, dials = 0,
         reuses = 0, retries = 0, busy = 0, timeouts = 0, failovers = 0,
         local_fallbacks = 0, tx_kb = 0, rx_kb = 0;
  // workload.*
  double gen_s = 0, gen_lag_ms_p99 = 0, gen_lag_ms_max = 0, lat_p99_ms = 0,
         lat_p999_ms = 0;
  // trace.*
  std::map<std::string, double> self_ms;
  double overhead_pct = 0;

  std::vector<Metric> List() const {
    std::vector<Metric> m = {
        {"engine.iterations", iterations, "count"},
        {"engine.ok_iter_ratio", ok_iter_ratio, "ratio"},
        {"engine.scan_ms", scan_ms, "ms"},
        {"engine.scan_share", scan_share, "ratio"},
        {"engine.scan_ns_per_row", scan_ns_per_row, "ns"},
        {"engine.scan_gbps_computed", scan_gbps_computed, "GB/s"},
        {"engine.fused_ratio", fused_ratio, "ratio"},
        {"engine.basis_ms", basis_ms, "ms"},
        {"engine.basis_share", basis_share, "ratio"},
        {"engine.basis_ms_per_call", basis_ms_per_call, "ms"},
        {"engine.oversized_solves", oversized_solves, "count"},
        {"engine.other_ms", other_ms, "ms"},
        {"engine.resample_kb", resample_kb, "KB"},
        {"models.rounds_per_solve", rounds_per_solve, "count"},
        {"models.sample_size", sample_size, "count"},
        {"models.coordinator.messages", coord_messages, "count"},
        {"models.mpc.max_load_kb", mpc_max_load_kb, "KB"},
        {"models.mpc.machines", mpc_machines, "count"},
        {"models.mpc.tree_depth", mpc_tree_depth, "count"},
        {"process.cpu_s", cpu_s, "s"},
        {"process.cpu_util", cpu_util, "ratio"},
        {"process.invol_ctx_switches", invol_ctx_switches, "count"},
        {"runtime.service.queue_wait_ms_p50", queue_wait_ms_p50, "ms"},
        {"runtime.service.queue_wait_ms_p99", queue_wait_ms_p99, "ms"},
        {"runtime.service.exec_ms_p50", exec_ms_p50, "ms"},
        {"runtime.service.exec_ms_p99", exec_ms_p99, "ms"},
        {"runtime.service.busy_share", busy_share, "ratio"},
        {"runtime.service.backlog_max", backlog_max, "count"},
    };
    for (size_t k = 0; k < 6; ++k) {
      const std::string p =
          std::string("problems.") +
          workload::ProblemKindName(static_cast<wire::ProblemKind>(k + 1));
      m.push_back({p + ".exec_ms_mean", kind_exec_ms_mean[k], "ms"});
      m.push_back({p + ".cpu_share", kind_cpu_share[k], "ratio"});
    }
    const std::vector<Metric> rest = {
        {"runtime.wire.req_kb_mean", req_kb_mean, "KB"},
        {"runtime.wire.resp_kb_mean", resp_kb_mean, "KB"},
        {"runtime.net.rtt_ms_p50", rtt_ms_p50, "ms"},
        {"runtime.net.rtt_ms_p99", rtt_ms_p99, "ms"},
        {"runtime.net.transport_ms_mean", transport_ms_mean, "ms"},
        {"runtime.net.dials", dials, "count"},
        {"runtime.net.reuses", reuses, "count"},
        {"runtime.net.retries", retries, "count"},
        {"runtime.net.busy", busy, "count"},
        {"runtime.net.timeouts", timeouts, "count"},
        {"runtime.net.failovers", failovers, "count"},
        {"runtime.net.local_fallbacks", local_fallbacks, "count"},
        {"runtime.net.tx_kb", tx_kb, "KB"},
        {"runtime.net.rx_kb", rx_kb, "KB"},
        {"workload.gen_s", gen_s, "s"},
        {"workload.gen_lag_ms_p99", gen_lag_ms_p99, "ms"},
        {"workload.gen_lag_ms_max", gen_lag_ms_max, "ms"},
        {"workload.lat_p99_ms", lat_p99_ms, "ms"},
        {"workload.lat_p999_ms", lat_p999_ms, "ms"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }

  std::vector<Metric> TraceList() const {
    std::vector<Metric> m;
    for (const char* span : kSpanNames) {
      auto it = self_ms.find(span);
      m.push_back({std::string("trace.self_ms.") + span,
                   it != self_ms.end() ? it->second : 0.0, "ms"});
    }
    m.push_back({"trace.overhead_pct", overhead_pct, "%"});
    return m;
  }
};

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".bench_results";
  std::string git = "unknown";
};

constexpr const char* kWorkloads[] = {"coord-lp", "mpc-lp", "serve-inproc",
                                      "serve-socket"};

void Usage() {
  std::cerr << "usage: lplow_bench --workload {coord-lp|mpc-lp|serve-inproc|"
               "serve-socket} [--seed N] [--seconds S] [--trace 0|1]\n"
               "                   [--out DIR] [--git DESCRIBE]\n"
               "       lplow_bench --quick\n";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--quick") {
      opt->quick = true;
      continue;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "missing value for " << key << "\n";
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (!(opt->seconds > 0 && opt->seconds <= 600)) end = nullptr;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (key == "--out") {
      opt->out_dir = value;
    } else if (key == "--git") {
      opt->git = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return false;
    }
    if ((key == "--seed" || key == "--seconds") &&
        (end == nullptr || *end != '\0' || value.empty())) {
      std::cerr << "bad value for " << key << ": " << value << "\n";
      return false;
    }
  }
  if (opt->quick) return opt->workload.empty();
  return std::find(std::begin(kWorkloads), std::end(kWorkloads),
                   opt->workload) != std::end(kWorkloads);
}

// ------------------------------------------------------------------ run state

/// Everything one workload run produces.
struct RunResult {
  EndToEnd e2e;
  Layers layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // First few correctness failures.
  std::string transcript;           // Folded output hash, hex.
  std::vector<std::pair<std::string, double>> phases;  // Name -> seconds.

  void Fail(const std::string& what, uint64_t count = 1) {
    failed += count;
    if (count > 0 && errors.size() < 8) errors.push_back(what);
  }
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Folds a snapshot into per-span self time: a span's duration minus the
/// part of it its children cover. A span whose parent was not recorded in
/// this process (the bench's request roots reserve their children's parent
/// id up front) hangs under its trace's root span.
std::map<std::string, double> FoldSelfTimeUs(
    const std::vector<trace::TraceRecorder::EventRecord>& events) {
  std::unordered_map<uint64_t, size_t> by_span;
  std::unordered_map<uint64_t, size_t> root_of_trace;
  for (size_t i = 0; i < events.size(); ++i) {
    by_span[events[i].span_id] = i;
    if (events[i].parent_span_id == 0) {
      root_of_trace.emplace(events[i].trace_id, i);
    }
  }
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    if (ev.parent_span_id == 0) continue;
    auto parent = by_span.find(ev.parent_span_id);
    size_t p;
    if (parent != by_span.end()) {
      p = parent->second;
    } else {
      auto root = root_of_trace.find(ev.trace_id);
      if (root == root_of_trace.end()) continue;
      p = root->second;
    }
    kids[p].emplace_back(ev.ts_us, ev.ts_us + ev.dur_us);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t lo = events[i].ts_us, hi = lo + events[i].dur_us;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[events[i].name] += static_cast<double>(events[i].dur_us - covered);
  }
  return self;
}

/// Writes the recorder's Chrome trace and folds its self times (ms per op).
void FinishTrace(const Options& opt, const trace::TraceRecorder& recorder,
                 double ops, RunResult* out) {
  const auto events = recorder.Snapshot();
  for (const auto& [name, us] : FoldSelfTimeUs(events)) {
    out->layers.self_ms[name] = us * 1e-3 / std::max(1.0, ops);
  }
  const std::string path = opt.out_dir + "/trace-" + opt.workload + ".json";
  std::ofstream file(path);
  recorder.WriteChromeJson(file);
  if (!file) out->Fail("cannot write " + path);
}

// ------------------------------------------------------------ solve workloads

using LpBasis = BasisResult<LinearProgram::Value, Halfspace>;
using Parts = std::vector<std::vector<Halfspace>>;

/// One model solve with the counters the model reports.
struct ModelRun {
  Result<LpBasis> result = Status::Internal("not run");
  size_t rounds = 0, bytes = 0, messages = 0, sample_size = 0;
  size_t iterations = 0, ok_iterations = 0;
  size_t max_load = 0, machines = 0, tree_depth = 0;
};

struct SolveSpec {
  const char* name;
  size_t n, d, parts;
  size_t instances, reps;
  std::function<ModelRun(const LinearProgram&, Parts, uint64_t,
                         const rt::RuntimeOptions&)>
      solve;
};

ModelRun SolveCoordinatorLp(const LinearProgram& problem, Parts parts,
                            uint64_t seed, const rt::RuntimeOptions& ro) {
  coord::CoordinatorOptions opt;
  opt.r = 4;
  opt.net.scale = 0.1;
  opt.seed = seed;
  opt.runtime = ro;
  coord::CoordinatorStats st;
  ModelRun run;
  run.result = coord::SolveCoordinator(problem, std::move(parts), opt, &st);
  run.rounds = st.rounds;
  run.bytes = st.total_bytes;
  run.messages = st.messages;
  run.sample_size = st.sample_size;
  run.iterations = st.iterations;
  run.ok_iterations = st.successful_iterations;
  return run;
}

ModelRun SolveMpcLp(const LinearProgram& problem, Parts parts, uint64_t seed,
                    const rt::RuntimeOptions& ro) {
  mpc::MpcOptions opt;
  opt.delta = 1.0 / 3.0;
  opt.net.scale = 0.5;
  opt.seed = seed;
  opt.runtime = ro;
  mpc::MpcStats st;
  ModelRun run;
  run.result = mpc::SolveMpc(problem, std::move(parts), opt, &st);
  run.rounds = st.rounds;
  run.bytes = st.total_bytes;
  run.sample_size = st.sample_size;
  run.iterations = st.iterations;
  run.ok_iterations = st.successful_iterations;
  run.max_load = st.max_load_bytes;
  run.machines = st.machines;
  run.tree_depth = st.tree_depth;
  return run;
}

/// The LP-type certificate f(B) = f(S): the returned basis reproduces the
/// value, and no input constraint violates it (one pass over the input).
bool CheckSolve(const LinearProgram& problem,
                const std::vector<Halfspace>& input, const ModelRun& run,
                std::string* why) {
  if (!run.result.ok()) {
    *why = run.result.status().ToString();
    return false;
  }
  const LpBasis& b = *run.result;
  if (!b.value.feasible) {
    *why = "feasible instance reported infeasible";
    return false;
  }
  if (b.basis.empty() || b.basis.size() > problem.CombinatorialDimension()) {
    *why = "basis size " + std::to_string(b.basis.size());
    return false;
  }
  const LinearProgram::Value basis_value =
      problem.SolveValue(std::span<const Halfspace>(b.basis));
  if (problem.CompareValues(basis_value, b.value) != 0) {
    *why = "f(basis) differs from the returned value";
    return false;
  }
  for (const Halfspace& c : input) {
    if (problem.Violates(basis_value, c)) {
      *why = "a constraint violates f(basis)";
      return false;
    }
  }
  return true;
}

/// Registry counters the engine reports, read as deltas around each solve.
struct EngineSnap {
  double iterations = 0, basis_solves = 0, oversized = 0, resample_bytes = 0;
  double scan_s = 0, basis_s = 0;
  double simd_blocks = 0, scalar_tail = 0, fused = 0, scan_requests = 0;

  static EngineSnap Read() {
    auto& r = rt::MetricsRegistry::Global();
    EngineSnap s;
    auto c = [&r](const char* n) {
      return static_cast<double>(r.GetCounter(n)->value());
    };
    s.iterations = c("engine.iterations");
    s.basis_solves = c("engine.basis_solves");
    s.oversized = c("engine.oversized_basis_solves");
    s.resample_bytes = c("engine.resample_bytes");
    s.simd_blocks = c("engine.scan.simd_blocks");
    s.scalar_tail = c("engine.scan.scalar_tail");
    s.fused = c("engine.scan.fused_reweights");
    s.scan_requests = c("engine.scan.requests");
    s.scan_s = r.GetTimer("engine.violator_scan_seconds")->total_seconds();
    s.basis_s = r.GetTimer("engine.basis_solve_seconds")->total_seconds();
    return s;
  }

  void Accumulate(const EngineSnap& before, const EngineSnap& after) {
    iterations += after.iterations - before.iterations;
    basis_solves += after.basis_solves - before.basis_solves;
    oversized += after.oversized - before.oversized;
    resample_bytes += after.resample_bytes - before.resample_bytes;
    scan_s += after.scan_s - before.scan_s;
    basis_s += after.basis_s - before.basis_s;
    simd_blocks += after.simd_blocks - before.simd_blocks;
    scalar_tail += after.scalar_tail - before.scalar_tail;
    fused += after.fused - before.fused;
    scan_requests += after.scan_requests - before.scan_requests;
  }
};

void RunSolveWorkload(const Options& opt, const SolveSpec& spec,
                      RunResult* out) {
  // Traced runs solve every repetition twice — recorder off, then on — so
  // the overhead compares identical work; each half gets half the time.
  std::unique_ptr<trace::TraceRecorder> recorder;
  if (opt.trace) recorder = std::make_unique<trace::TraceRecorder>(false);

  struct Instance {
    workload::LpInstance lp;
    Parts parts;
  };
  auto generate = [&](size_t i) {
    const int64_t t0 = NowNs();
    Rng rng(DeriveSeed(opt.seed, 1, i));
    Instance inst{workload::RandomFeasibleLp(spec.n, spec.d, &rng), {}};
    inst.parts = workload::Partition(inst.lp.constraints, spec.parts,
                                     /*shuffled=*/true, &rng);
    out->layers.gen_s += NsToS(NowNs() - t0);
    return inst;
  };

  Instance inst = generate(0);
  LinearProgram problem(inst.lp.objective);

  // Set-up: the solver pool plus kWarmupSolves first solves, kSetups times;
  // the last pool serves the timed loop. Handing each solve its own copy of
  // the input is not timed.
  constexpr size_t kWarmupSolves = 5;
  std::unique_ptr<rt::ThreadPool> pool;
  std::vector<double> setups;
  const size_t setup_count = opt.quick ? 1 : kSetups;
  for (size_t s = 0; s < setup_count; ++s) {
    pool.reset();
    int64_t t0 = NowNs();
    pool = std::make_unique<rt::ThreadPool>(kBusyThreads);
    rt::RuntimeOptions ro;
    ro.pool = pool.get();
    int64_t setup_ns = NowNs() - t0;
    for (size_t w = 0; w < kWarmupSolves; ++w) {
      Parts copy = inst.parts;
      t0 = NowNs();
      ModelRun warm = spec.solve(problem, std::move(copy),
                                 DeriveSeed(opt.seed, 4, w), ro);
      setup_ns += NowNs() - t0;
      std::string why;
      if (!CheckSolve(problem, inst.lp.constraints, warm, &why)) {
        out->Fail(std::string("warm-up solve: ") + why);
      }
    }
    setups.push_back(NsToS(setup_ns));
  }
  out->e2e.setup_s = Percentile(setups, 0.5);

  std::vector<double> solve_ms, traced_ms;
  EngineSnap engine;
  double solve_s = 0, bytes = 0, rounds = 0, messages = 0, iterations = 0,
         ok_iterations = 0, max_load = 0;
  uint64_t transcript = 1469598103934665603ULL;
  const ProcessUsage usage0 = ProcessUsage::Now();
  double untraced_wall_s = 0;
  const int64_t measure0 = NowNs();

  for (size_t i = 0; i < spec.instances; ++i) {
    if (i > 0) {
      inst = generate(i);
      problem = LinearProgram(inst.lp.objective);
    }
    for (size_t rep = 0; rep < spec.reps; ++rep) {
      for (int traced = 0; traced <= (opt.trace ? 1 : 0); ++traced) {
        Parts copy = inst.parts;
        rt::RuntimeOptions ro;
        ro.pool = pool.get();
        if (traced) {
          ro.trace = recorder.get();
          recorder->SetEnabled(true);
        }
        const EngineSnap before = EngineSnap::Read();
        const ProcessUsage u0 = ProcessUsage::Now();
        const int64_t t0 = NowNs();
        ModelRun run;
        {
          trace::TraceSpan span(ro.trace, "bench.solve");
          span.Arg("instance", i);
          run = spec.solve(problem, std::move(copy),
                         DeriveSeed(opt.seed, 2, i * spec.reps + rep), ro);
        }
        const int64_t t1 = NowNs();
        if (recorder) recorder->SetEnabled(false);
        ++out->attempted;
        std::string why;
        if (!CheckSolve(problem, inst.lp.constraints, run, &why)) {
          out->Fail(std::string(spec.name) + " instance " + std::to_string(i) +
                    ": " + why);
        }
        if (traced) {
          traced_ms.push_back(NsToMs(t1 - t0));
          continue;
        }
        engine.Accumulate(before, EngineSnap::Read());
        untraced_wall_s += NsToS(t1 - t0);
        out->layers.cpu_s += ProcessUsage::Now().cpu_s - u0.cpu_s;
        solve_ms.push_back(NsToMs(t1 - t0));
        solve_s += NsToS(t1 - t0);
        bytes += static_cast<double>(run.bytes);
        rounds += static_cast<double>(run.rounds);
        messages += static_cast<double>(run.messages);
        iterations += static_cast<double>(run.iterations);
        ok_iterations += static_cast<double>(run.ok_iterations);
        max_load = std::max(max_load, static_cast<double>(run.max_load));
        out->layers.sample_size = static_cast<double>(run.sample_size);
        out->layers.mpc_machines = static_cast<double>(run.machines);
        out->layers.mpc_tree_depth = static_cast<double>(run.tree_depth);
        for (size_t v : {run.rounds, run.bytes, run.iterations}) {
          transcript = FoldHash(transcript, v);
        }
        if (run.result.ok()) {
          for (const Halfspace& c : run.result->basis) {
            for (double v : c.a.data()) transcript = FoldHash(transcript, Bits(v));
            transcript = FoldHash(transcript, Bits(c.b));
          }
        }
      }
    }
  }
  const double measure_s = NsToS(NowNs() - measure0);
  const ProcessUsage usage1 = ProcessUsage::Now();

  const double solves = static_cast<double>(solve_ms.size());
  out->e2e.lat_p50_ms = Percentile(solve_ms, 0.5);
  out->e2e.lat_p90_ms = Percentile(solve_ms, 0.9);
  out->e2e.ops_per_s = Ratio(solves, solve_s);
  out->e2e.kb_per_op = Ratio(bytes / 1024.0, solves);
  out->e2e.peak_rss_mb = usage1.peak_rss_mb;
  out->transcript = Hex(transcript);

  Layers& L = out->layers;
  const double rows = engine.simd_blocks * 8 + engine.scalar_tail;
  L.iterations = Ratio(iterations, solves);
  L.ok_iter_ratio = Ratio(ok_iterations, iterations);
  L.scan_ms = Ratio(engine.scan_s * 1e3, solves);
  L.scan_share = Ratio(engine.scan_s, solve_s);
  L.scan_ns_per_row = Ratio(engine.scan_s * 1e9, rows);
  // Computed bytes: the d normal columns plus the two aux columns (offset,
  // tolerance scale) each scanned row reads from the SoA mirror.
  L.scan_gbps_computed =
      Ratio(rows * static_cast<double>((spec.d + 2) * sizeof(double)) * 1e-9,
            engine.scan_s);
  L.fused_ratio = Ratio(engine.fused, engine.scan_requests);
  L.basis_ms = Ratio(engine.basis_s * 1e3, solves);
  L.basis_share = Ratio(engine.basis_s, solve_s);
  L.basis_ms_per_call = Ratio(engine.basis_s * 1e3, engine.basis_solves);
  L.oversized_solves = Ratio(engine.oversized, solves);
  L.other_ms = Ratio((solve_s - engine.scan_s - engine.basis_s) * 1e3, solves);
  L.resample_kb = Ratio(engine.resample_bytes / 1024.0, solves);
  L.rounds_per_solve = Ratio(rounds, solves);
  L.coord_messages = Ratio(messages, solves);
  L.mpc_max_load_kb = max_load / 1024.0;
  L.cpu_util = Ratio(L.cpu_s, untraced_wall_s * kBusyThreads);
  L.invol_ctx_switches = usage1.invol_ctx - usage0.invol_ctx;

  out->phases.push_back({"setup", Percentile(setups, 0.5)});
  out->phases.push_back({"measure", measure_s});
  out->phases.push_back({"solve", solve_s});
  if (recorder) {
    L.overhead_pct =
        100.0 * (Ratio(Percentile(traced_ms, 0.5), out->e2e.lat_p50_ms) - 1.0);
    FinishTrace(opt, *recorder, static_cast<double>(traced_ms.size()), out);
  }
}

// ------------------------------------------------------------ serve workloads

/// What one served job left behind; written by the worker that ran it,
/// read after the service drained.
struct JobRecord {
  int64_t due = 0, submit = 0, start = 0, end = 0, call = 0;
  uint64_t hash = 0;
  uint32_t req_bytes = 0, resp_bytes = 0;
  uint8_t kind = 0;
  bool ok = false;
  bool remote = false;
};

/// The served system: a ShardedSolverService that either serves each job
/// in-process or forwards it through a SocketSolveBackend to an in-process
/// SolveDaemon. Members are declared so the service (whose jobs use the
/// client) stops first and the registries outlive everything.
struct ServeStack {
  rt::MetricsRegistry registry;
  rt::MetricsRegistry daemon_registry;
  std::unique_ptr<rt::SolveDaemon> daemon;
  std::unique_ptr<rt::SocketSolveBackend> client;
  std::unique_ptr<rt::ShardedSolverService> service;
  trace::TraceRecorder* recorder = nullptr;
};

/// One shard of kBusyThreads workers for the service and the daemon alike:
/// with two workers per shard, a job waits behind a shard's two heavy jobs
/// often enough (~8% of jobs at the nominal rate) that the p90 latency sits
/// on that edge and swings with the mix.
Status BuildStack(bool socket, const std::string& socket_path,
                  trace::TraceRecorder* recorder, ServeStack* stack) {
  stack->recorder = recorder;
  rt::ShardedSolverService::Options sopt;
  sopt.num_shards = 1;
  sopt.threads_per_shard = kBusyThreads;
  sopt.metrics = &stack->registry;
  sopt.trace = recorder;
  if (socket) {
    rt::SolveDaemon::Options dopt;
    dopt.socket_path = socket_path;
    dopt.num_shards = 1;
    dopt.threads_per_shard = kBusyThreads;
    dopt.metrics = &stack->daemon_registry;
    dopt.trace = recorder;
    LPLOW_ASSIGN_OR_RETURN(stack->daemon, rt::SolveDaemon::Start(dopt));
    rt::SocketSolveBackend::Options copt;
    copt.endpoints = {socket_path};
    copt.max_pooled_connections = kBusyThreads;
    copt.metrics = &stack->registry;
    copt.trace = recorder;
    LPLOW_ASSIGN_OR_RETURN(stack->client, rt::SocketSolveBackend::Create(copt));
  }
  stack->service = std::make_unique<rt::ShardedSolverService>(sopt);
  return Status::OK();
}

/// Serves job `job` (worker side): in-process, or through the socket
/// client. A local fallback on the socket path is served in-process (so the
/// transcript still folds) and marked not remote.
void ServeJob(ServeStack& stack, const workload::RecordedJob& job,
              JobRecord* rec) {
  rec->start = NowNs();
  trace::TraceRecorder* tr =
      stack.recorder != nullptr && stack.recorder->enabled() ? stack.recorder
                                                             : nullptr;
  trace::SpanContext parent;
  if (tr != nullptr) {
    parent = {tr->NewTraceId(), tr->NewTraceId()};
    tr->RecordComplete("bench.queue_wait", NsToUs(rec->submit),
                       NsToUs(rec->start), parent);
  }
  std::vector<uint8_t> response;
  {
    trace::ContextScope scope(tr, parent);
    trace::TraceSpan span(tr, stack.client ? "bench.rtt" : "bench.serve");
    const int64_t c0 = NowNs();
    if (stack.client) {
      rec->remote = stack.client->ExecuteSerialized(
          job.job_id, workload::ProblemKindName(job.kind), job.request,
          &response);
    }
    if (!rec->remote) {
      wire::ServeOptions serve;
      serve.trace = tr;
      auto served = wire::ServeSolveRequestPayload(job.request, serve);
      response = served.ok() ? std::move(*served)
                             : wire::EncodeSolveErrorResponsePayload(
                                   job.job_id, served.status());
    }
    rec->call = NowNs() - c0;
  }
  auto head = wire::PeekSolveResponseHead(response);
  rec->ok = head.ok() && head->status.ok() && head->job_id == job.job_id;
  rec->hash = Fnv1a(response);
  rec->req_bytes = static_cast<uint32_t>(job.request.size());
  rec->resp_bytes = static_cast<uint32_t>(response.size());
  rec->kind = static_cast<uint8_t>(job.kind);
  rec->end = NowNs();
  if (tr != nullptr) {
    tr->RecordComplete("bench.request", NsToUs(rec->due), NsToUs(rec->end),
                       {parent.trace_id, 0});
  }
}

/// The jobs of one phase. A deque, so records stay put while workers write
/// them and the generator appends.
struct Phase {
  std::deque<JobRecord> jobs;
  int64_t t0 = 0;
  double backlog_max = 0;
};

/// Open loop: job k (recording index k mod size) is due at t0 + k/rate and
/// is submitted then, whatever the backlog; latency runs from the due time
/// to completion, so a stall also delays every job due behind it.
Phase RunOpenLoop(ServeStack& stack, const workload::RecordedWorkload& mix,
                  double rate, size_t count) {
  Phase ph;
  std::atomic<uint64_t> done{0};
  const double period_ns = 1e9 / rate;
  ph.t0 = NowNs() + 2'000'000;  // 2 ms lead so job 0 is not born late.
  for (size_t k = 0; k < count; ++k) {
    JobRecord* rec = &ph.jobs.emplace_back();
    rec->due = ph.t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
    if (NowNs() < rec->due) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(rec->due)));
    }
    rec->submit = NowNs();
    const workload::RecordedJob& job = mix.jobs[k % mix.jobs.size()];
    ph.backlog_max = std::max(
        ph.backlog_max,
        static_cast<double>(k - done.load(std::memory_order_relaxed)));
    stack.service->Submit(job.job_id, "bench", [&stack, &job, rec, &done] {
      ServeJob(stack, job, rec);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  stack.service->Drain();
  return ph;
}

/// Saturation: `depth` jobs always outstanding for `seconds`, so no worker
/// idles; the completion rate is the service's capacity.
Phase RunSaturated(ServeStack& stack, const workload::RecordedWorkload& mix,
                   size_t depth, double seconds) {
  Phase ph;
  std::mutex mu;
  std::condition_variable cv;
  size_t outstanding = 0;
  ph.t0 = NowNs();
  const int64_t stop = ph.t0 + static_cast<int64_t>(seconds * 1e9);
  for (size_t k = 0; NowNs() < stop; ++k) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return outstanding < depth; });
      ++outstanding;
    }
    JobRecord* rec = &ph.jobs.emplace_back();
    rec->due = rec->submit = NowNs();
    const workload::RecordedJob& job = mix.jobs[k % mix.jobs.size()];
    stack.service->Submit(job.job_id, "bench",
                          [&stack, &job, rec, &mu, &cv, &outstanding] {
      ServeJob(stack, job, rec);
      {
        std::lock_guard<std::mutex> lock(mu);
        --outstanding;
      }
      cv.notify_one();
    });
  }
  stack.service->Drain();
  return ph;
}

std::vector<double> Latencies(const Phase& ph) {
  std::vector<double> lat;
  for (const JobRecord& r : ph.jobs) lat.push_back(NsToMs(r.end - r.due));
  return lat;
}

/// p90 latency of each run of `per_window` consecutive jobs (jobs are in
/// due order), then the median over those windows; the whole phase's p90
/// when it is shorter than one window. A co-tenant's burst on a shared
/// machine spoils a window or two, not the median.
double WindowedP90Ms(const Phase& ph, size_t per_window) {
  std::vector<double> p90s;
  for (size_t lo = 0; lo + per_window <= ph.jobs.size(); lo += per_window) {
    std::vector<double> lat;
    for (size_t k = lo; k < lo + per_window; ++k) {
      lat.push_back(NsToMs(ph.jobs[k].end - ph.jobs[k].due));
    }
    p90s.push_back(Percentile(lat, 0.9));
  }
  return p90s.empty() ? Percentile(Latencies(ph), 0.9)
                      : Percentile(p90s, 0.5);
}

uint64_t CountFailures(const Phase& ph, bool socket) {
  uint64_t failed = 0;
  for (const JobRecord& r : ph.jobs) {
    if (!r.ok || (socket && !r.remote)) ++failed;
  }
  return failed;
}

/// Per-layer readings of the nominal phase.
void FillServeLayers(const Phase& ph, Layers* L) {
  std::vector<double> lag, qwait, exec, rtt;
  double kind_ns[6] = {}, kind_n[6] = {}, busy_ns = 0, call_ns = 0;
  double req = 0, resp = 0;
  int64_t last_end = ph.t0;
  for (const JobRecord& r : ph.jobs) {
    lag.push_back(NsToMs(r.submit - r.due));
    qwait.push_back(NsToMs(r.start - r.submit));
    exec.push_back(NsToMs(r.end - r.start));
    if (r.remote) rtt.push_back(NsToMs(r.call));
    busy_ns += static_cast<double>(r.end - r.start);
    call_ns += static_cast<double>(r.call);
    const size_t k = std::clamp<size_t>(r.kind, 1, 6) - 1;
    kind_ns[k] += static_cast<double>(r.call);
    kind_n[k] += 1;
    req += r.req_bytes;
    resp += r.resp_bytes;
    last_end = std::max(last_end, r.end);
  }
  const double n = static_cast<double>(ph.jobs.size());
  const std::vector<double> lat = Latencies(ph);
  L->lat_p99_ms = Percentile(lat, 0.99);
  L->lat_p999_ms = Percentile(lat, 0.999);
  L->gen_lag_ms_p99 = Percentile(lag, 0.99);
  L->gen_lag_ms_max = Percentile(lag, 1.0);
  L->queue_wait_ms_p50 = Percentile(qwait, 0.5);
  L->queue_wait_ms_p99 = Percentile(qwait, 0.99);
  L->exec_ms_p50 = Percentile(exec, 0.5);
  L->exec_ms_p99 = Percentile(exec, 0.99);
  L->busy_share = Ratio(busy_ns, static_cast<double>(last_end - ph.t0) *
                                     static_cast<double>(kBusyThreads));
  L->backlog_max = ph.backlog_max;
  for (size_t k = 0; k < 6; ++k) {
    L->kind_exec_ms_mean[k] = Ratio(kind_ns[k] * 1e-6, kind_n[k]);
    L->kind_cpu_share[k] = Ratio(kind_ns[k], call_ns);
  }
  L->req_kb_mean = Ratio(req / 1024.0, n);
  L->resp_kb_mean = Ratio(resp / 1024.0, n);
  L->rtt_ms_p50 = Percentile(rtt, 0.5);
  L->rtt_ms_p99 = Percentile(rtt, 0.99);
}

struct NetSnap {
  rt::SocketSolveBackend::Stats stats;
  rt::SocketSolveBackend::EndpointStats ep;
  double retries = 0;
  double qw_sum = 0, qw_count = 0, ex_sum = 0, ex_count = 0;

  static NetSnap Read(ServeStack& stack) {
    NetSnap s;
    if (!stack.client) return s;
    s.stats = stack.client->stats();
    s.ep = stack.client->endpoint_stats(0);
    s.retries = static_cast<double>(
        stack.registry.GetCounter("wire.client.retries")->value());
    auto* qw =
        stack.daemon_registry.GetHistogram("service.shard.queue_wait_seconds");
    auto* ex =
        stack.daemon_registry.GetHistogram("service.shard.execute_seconds");
    s.qw_sum = qw->sum();
    s.qw_count = static_cast<double>(qw->count());
    s.ex_sum = ex->sum();
    s.ex_count = static_cast<double>(ex->count());
    return s;
  }
};

void FillNetLayers(const NetSnap& a, const NetSnap& b, const Phase& ph,
                   Layers* L) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  L->dials = d(a.ep.dials, b.ep.dials);
  L->reuses = d(a.ep.reuses, b.ep.reuses);
  L->retries = b.retries - a.retries;
  L->busy = d(a.stats.busy, b.stats.busy);
  L->timeouts = d(a.stats.timeouts, b.stats.timeouts);
  L->failovers = d(a.stats.failovers, b.stats.failovers);
  L->local_fallbacks = d(a.stats.local_fallbacks, b.stats.local_fallbacks);
  L->tx_kb = d(a.ep.tx_bytes, b.ep.tx_bytes) / 1024.0;
  L->rx_kb = d(a.ep.rx_bytes, b.ep.rx_bytes) / 1024.0;
  std::vector<double> rtt;
  for (const JobRecord& r : ph.jobs) {
    if (r.remote) rtt.push_back(NsToMs(r.call));
  }
  if (rtt.empty()) return;
  const double daemon_ms =
      1e3 * (Ratio(b.qw_sum - a.qw_sum, b.qw_count - a.qw_count) +
             Ratio(b.ex_sum - a.ex_sum, b.ex_count - a.ex_count));
  L->transport_ms_mean = Mean(rtt) - daemon_ms;
}

void RunServeWorkload(const Options& opt, bool socket, RunResult* out) {
  // Schedule (README.md): each set-up ends with a short warm-up; then the
  // nominal phase, then the saturation phase (or, traced, the nominal
  // schedule again with the recorder on).
  constexpr double kNominalRate = 1000;
  constexpr double kWarmupRate = 2000;
  constexpr size_t kSaturationDepth = 64;
  const size_t warmup_jobs = opt.quick ? 200 : 1000;
  const double nominal_s = opt.seconds * (opt.trace ? 0.5 : 0.6);
  const double saturation_s = opt.seconds * 0.3;

  const int64_t g0 = NowNs();
  workload::RecordOptions ropt;
  ropt.seed = DeriveSeed(opt.seed, 3, 0);
  ropt.num_jobs = opt.quick ? 2000 : 30000;
  ropt.num_tenants = 256;
  ropt.tenant_zipf_s = 1.1;
  ropt.kind_zipf_s = 1.0;
  ropt.size_zipf_s = 1.3;
  ropt.base_constraints = 24;
  ropt.size_classes = 4;
  const workload::RecordedWorkload mix = workload::RecordWorkload(ropt);
  out->layers.gen_s = NsToS(NowNs() - g0);

  std::unique_ptr<trace::TraceRecorder> recorder;
  if (opt.trace) recorder = std::make_unique<trace::TraceRecorder>(false);
  const std::string socket_path = "unix:" + opt.out_dir + "/lplow_bench-" +
                                  std::to_string(::getpid()) + ".sock";

  // Set-up: build the stack and warm it, kSetups times; the last one stays.
  std::unique_ptr<ServeStack> stack;
  std::vector<double> setups;
  const size_t setup_count = opt.quick ? 1 : kSetups;
  for (size_t s = 0; s < setup_count; ++s) {
    stack.reset();
    const int64_t t0 = NowNs();
    stack = std::make_unique<ServeStack>();
    Status st = BuildStack(socket, socket_path, recorder.get(), stack.get());
    if (!st.ok()) {
      out->Fail("set-up: " + st.ToString());
      return;
    }
    const Phase warm = RunOpenLoop(*stack, mix, kWarmupRate, warmup_jobs);
    setups.push_back(NsToS(NowNs() - t0));
    out->Fail("warm-up job failed", CountFailures(warm, socket));
  }
  out->e2e.setup_s = Percentile(setups, 0.5);
  out->phases.push_back({"setup", out->e2e.setup_s});

  const size_t nominal_jobs =
      std::max<size_t>(1, static_cast<size_t>(kNominalRate * nominal_s));
  const ProcessUsage u0 = ProcessUsage::Now();
  const NetSnap net0 = NetSnap::Read(*stack);
  const Phase nominal = RunOpenLoop(*stack, mix, kNominalRate, nominal_jobs);
  const ProcessUsage u1 = ProcessUsage::Now();
  const NetSnap net1 = NetSnap::Read(*stack);

  const double nominal_wall = NsToS(nominal.jobs.back().end - nominal.t0);
  out->phases.push_back({"nominal", nominal_wall});
  out->attempted += nominal.jobs.size();
  Layers& L = out->layers;
  FillServeLayers(nominal, &L);
  FillNetLayers(net0, net1, nominal, &L);
  L.cpu_s = u1.cpu_s - u0.cpu_s;
  L.cpu_util = Ratio(L.cpu_s, nominal_wall * kBusyThreads);
  L.invol_ctx_switches = u1.invol_ctx - u0.invol_ctx;

  const std::vector<double> lat = Latencies(nominal);
  out->e2e.lat_p50_ms = Percentile(lat, 0.5);
  // Windows of 1.5 s: 1500 jobs, 150 beyond each window's p90.
  out->e2e.lat_p90_ms =
      WindowedP90Ms(nominal, static_cast<size_t>(kNominalRate * 1.5));
  double req = 0, resp = 0;
  uint64_t transcript = 1469598103934665603ULL;
  for (size_t k = 0; k < nominal.jobs.size(); ++k) {
    const JobRecord& r = nominal.jobs[k];
    req += r.req_bytes;
    resp += r.resp_bytes;
    transcript = FoldHash(transcript, r.hash);
    if (!r.ok) out->Fail("job " + std::to_string(k) + ": non-OK response");
    if (socket && !r.remote) {
      out->Fail("job " + std::to_string(k) + ": local fallback");
    }
  }
  out->e2e.kb_per_op =
      Ratio((req + resp) / 1024.0, static_cast<double>(nominal.jobs.size()));
  out->transcript = Hex(transcript);

  if (recorder) {
    recorder->SetEnabled(true);
    const Phase traced = RunOpenLoop(*stack, mix, kNominalRate, nominal_jobs);
    recorder->SetEnabled(false);
    out->attempted += traced.jobs.size();
    out->Fail("traced job failed", CountFailures(traced, socket));
    L.overhead_pct = 100.0 * (Ratio(Percentile(Latencies(traced), 0.5),
                                    out->e2e.lat_p50_ms) -
                              1.0);
    FinishTrace(opt, *recorder, static_cast<double>(traced.jobs.size()), out);
  } else {
    const Phase sat = RunSaturated(*stack, mix, kSaturationDepth, saturation_s);
    out->attempted += sat.jobs.size();
    out->Fail("saturation job failed", CountFailures(sat, socket));
    out->phases.push_back({"saturation", saturation_s});
    // Completions per second once the queues are full (after a 0.25 s
    // ramp) up to the stop time; the whole phase, so the rate averages over
    // thousands of jobs of every kind and size.
    const int64_t to = sat.t0 + static_cast<int64_t>(saturation_s * 1e9);
    const int64_t from =
        sat.t0 + std::min<int64_t>(250'000'000, (to - sat.t0) / 4);
    double completed = 0;
    for (const JobRecord& r : sat.jobs) {
      if (r.end >= from && r.end < to) ++completed;
    }
    out->e2e.ops_per_s = Ratio(completed, NsToS(to - from));
  }

  // Re-serve every 16th nominal job in-process; fingerprints must agree.
  for (size_t k = 0; k < nominal.jobs.size(); k += 16) {
    const workload::RecordedJob& job = mix.jobs[k % mix.jobs.size()];
    auto served = wire::ServeSolveRequestPayload(job.request);
    if (!served.ok() || Fnv1a(*served) != nominal.jobs[k].hash) {
      out->Fail("job " + std::to_string(k) + ": fingerprint mismatch");
    }
  }
  stack.reset();
  out->e2e.peak_rss_mb = ProcessUsage::Now().peak_rss_mb;
}

// -------------------------------------------------------------------- main

RunResult RunWorkload(const Options& opt) {
  RunResult out;
  const double s = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  // Solve plans: kSolveReps solver seeds per generated instance (a solve's
  // time is set mostly by how many iterations its seed needs, so many seeds
  // per instance buy stable medians without paying generation), and
  // instances in proportion to the run length.
  constexpr size_t kSolveReps = 20;
  const size_t reps = opt.quick ? 1 : kSolveReps;
  if (opt.workload == "coord-lp") {
    // ~0.07 s per solve plus ~0.04 s handing over a fresh copy of the input.
    const size_t instances =
        std::max<size_t>(1, static_cast<size_t>(std::lround(s * 0.4)));
    RunSolveWorkload(opt,
                     {"coord-lp", 1'000'000, 2, 4, instances, reps,
                      SolveCoordinatorLp},
                     &out);
  } else if (opt.workload == "mpc-lp") {
    // ~0.06 s per solve; generation is cheap, so half the seeds per
    // instance and twice the instances.
    const size_t instances =
        std::max<size_t>(1, static_cast<size_t>(std::lround(s * 1.2)));
    RunSolveWorkload(opt,
                     {"mpc-lp", 50'000, 3, 16, instances,
                      opt.quick ? 1 : kSolveReps / 2, SolveMpcLp},
                     &out);
  } else {
    RunServeWorkload(opt, opt.workload == "serve-socket", &out);
  }
  return out;
}

void Emit(const std::vector<Metric>& metrics, const char* tag,
          std::ostream& os) {
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-6s %-42s %16.6g %s\n", tag,
                  m.name.c_str(), m.value, m.unit.c_str());
    os << line;
  }
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  const std::string build_type = LPLOW_BENCH_BUILD_TYPE;
  if (build_type != "Release" && !opt.quick) {
    std::cerr << "lplow_bench: refusing to time a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  if (opt.quick) {
    // Correctness smoke for CTest: every workload, short, no timing claims.
    opt.seconds = 0.5;
    opt.out_dir = ".";
    bool all_ok = true;
    for (const char* w : kWorkloads) {
      opt.workload = w;
      const RunResult r = RunWorkload(opt);
      std::cout << w << ": attempted " << r.attempted << ", failed "
                << r.failed << ", transcript " << r.transcript << "\n";
      for (const auto& e : r.errors) std::cout << "  " << e << "\n";
      all_ok = all_ok && r.failed == 0 && r.attempted > 0;
    }
    return all_ok ? 0 : 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::cerr << "lplow_bench: cannot create " << opt.out_dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  const std::string load_start = ReadLoadAvg();
  const double calibration_start = CalibrationMs();
  const int64_t t0 = NowNs();
  RunResult r = RunWorkload(opt);
  const double total_s = NsToS(NowNs() - t0);
  const bool correct = r.failed == 0 && r.attempted > 0;

  std::vector<std::pair<std::string, std::string>> facts = {
      {"workload", opt.workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", FormatNumber(opt.seconds)},
      {"trace", opt.trace ? "1" : "0"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"scan_kernel", engine::ScanKernelName()},
      {"compiler", LPLOW_BENCH_COMPILER},
      {"flags", LPLOW_BENCH_FLAGS},
      {"build_type", build_type},
      {"git", opt.git},
      {"loadavg_start", load_start},
      {"loadavg_end", ReadLoadAvg()},
      {"calibration_ms_start", FormatNumber(calibration_start)},
      {"calibration_ms_end", FormatNumber(CalibrationMs())},
      {"transcript", r.transcript},
  };
  r.phases.push_back({"gen", r.layers.gen_s});
  r.phases.push_back({"total", total_s});

  for (const auto& [k, v] : facts) std::cout << "# " << k << ": " << v << "\n";
  for (const auto& [k, v] : r.phases) {
    std::cout << "# phase " << k << ": " << FormatNumber(v) << " s\n";
  }
  const double fail_frac =
      Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
  std::cout << "# attempted " << r.attempted << ", failed " << r.failed
            << ", fail_frac " << FormatNumber(fail_frac) << "\n";
  for (const auto& e : r.errors) std::cout << "# error: " << e << "\n";
  const std::vector<Metric> e2e = r.e2e.List();
  std::vector<Metric> layers = r.layers.List();
  if (opt.trace) {
    const std::vector<Metric> t = r.layers.TraceList();
    layers.insert(layers.end(), t.begin(), t.end());
  }
  Emit(e2e, "e2e", std::cout);
  Emit(layers, "layer", std::cout);
  for (const auto& [span, ms] : r.layers.self_ms) {
    if (std::find_if(std::begin(kSpanNames), std::end(kSpanNames),
                     [&](const char* s) { return span == s; }) ==
        std::end(kSpanNames)) {
      std::cout << "# unlisted span trace.self_ms." << span << ": "
                << FormatNumber(ms) << " ms\n";
    }
  }

  // Results file: facts, phases and every metric, for compare.py.
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) +
                           (opt.trace ? "-trace" : "") + ".json";
  {
    std::ofstream file(path);
    file << "{\"facts\": {";
    for (size_t i = 0; i < facts.size(); ++i) {
      file << (i ? ", " : "") << JsonString(facts[i].first) << ": "
           << JsonString(facts[i].second);
    }
    file << "}, \"phases_s\": {";
    for (size_t i = 0; i < r.phases.size(); ++i) {
      file << (i ? ", " : "") << JsonString(r.phases[i].first) << ": "
           << FormatNumber(r.phases[i].second);
    }
    file << "}, \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
         << ", \"fail_frac\": " << FormatNumber(fail_frac)
         << ", \"end_to_end\": " << MetricsJson(e2e)
         << ", \"per_layer\": " << MetricsJson(layers) << "}\n";
    if (!file) std::cerr << "lplow_bench: cannot write " << path << "\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << MetricsJson(opt.trace ? layers : e2e)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lplow

int main(int argc, char** argv) { return lplow::Main(argc, argv); }
