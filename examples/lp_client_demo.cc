// lp_client_demo: the engine dispatching its basis solves to an lp_served
// daemon across the process boundary. Solves one distributed coordinator LP
// twice — serially in-process, then with every oversized basis solve routed
// through SocketSolveBackend — and checks the two answers agree exactly
// (the wire determinism contract). With --shutdown it then asks the daemon
// to exit, so a pair of these makes a self-contained smoke test:
//
//   ./lp_served --socket=/tmp/lp.sock &
//   ./lp_client_demo --socket=/tmp/lp.sock --shutdown
//
// Observability flags (docs/runtime.md §"Tracing and histograms"):
//   --stats        scrape the live daemon's metrics JSON over the wire and
//                  verify it carries wire.daemon.* counters + histograms;
//   --trace=FILE   record the client side, scrape the daemon's trace, and
//                  write one merged Chrome JSON (load in chrome://tracing
//                  or ui.perfetto.dev) — fails unless a client basis-solve
//                  span and the daemon's spans share a trace id.
//
// --socket takes an endpoint spec ("unix:/path", "tcp:host:port", or a
// bare path).
//
//   lp_client_demo [--socket=ENDPOINT] [--stats] [--trace=FILE] [--shutdown]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/models/coordinator/coordinator_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/lp_client.h"
#include "src/runtime/trace.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"

int main(int argc, char** argv) {
  using namespace lplow;

  std::string socket_path = "/tmp/lplow_served.sock";
  std::string trace_file;
  bool want_stats = false;
  bool shutdown_daemon = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_file = arg.substr(8);
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--shutdown") {
      shutdown_daemon = true;
    } else {
      std::fprintf(stderr,
                   "usage: lp_client_demo [--socket=ENDPOINT] [--stats] "
                   "[--trace=FILE] [--shutdown]\n");
      return 2;
    }
  }

  runtime::trace::TraceRecorder recorder(/*enabled=*/!trace_file.empty());
  recorder.SetProcessLabel("lp_client_demo");

  runtime::SocketSolveBackend::Options options;
  options.endpoints = {socket_path};
  options.trace = &recorder;
  auto client = runtime::SocketSolveBackend::Create(options);
  if (!client.ok()) {
    std::fprintf(stderr, "lp_client_demo: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  // The daemon may still be coming up (the smoke test backgrounds it):
  // give it a few seconds of ping retries before the first real job.
  bool up = false;
  for (int i = 0; i < 50; ++i) {
    if ((*client)->Ping(0).ok()) {
      up = true;
      break;
    }
    ::usleep(100'000);
  }
  if (!up) {
    std::fprintf(stderr, "lp_client_demo: no daemon at %s\n",
                 socket_path.c_str());
    return 1;
  }
  std::printf("lp_client_demo: daemon at %s is up\n", socket_path.c_str());

  Rng rng(0xC11E57ULL);
  auto inst = workload::RandomFeasibleLp(20000, 2, &rng);
  LinearProgram problem(inst.objective);
  auto parts = workload::Partition(inst.constraints, 8, true, &rng);

  coord::CoordinatorOptions opt;
  opt.net.scale = 0.1;
  opt.seed = 0xC11E57ULL;
  auto serial = coord::SolveCoordinator(problem, parts, opt, nullptr);
  if (!serial.ok()) {
    std::fprintf(stderr, "serial solve failed: %s\n",
                 serial.status().ToString().c_str());
    return 1;
  }

  opt.runtime.solver_backend = client->get();
  opt.runtime.oversized_basis_threshold = 1;  // Route every basis solve.
  opt.runtime.trace = &recorder;
  auto remote = coord::SolveCoordinator(problem, parts, opt, nullptr);
  if (!remote.ok()) {
    std::fprintf(stderr, "remote-backed solve failed: %s\n",
                 remote.status().ToString().c_str());
    return 1;
  }
  if (problem.CompareValues(remote->value, serial->value) != 0) {
    std::fprintf(stderr,
                 "remote-backed solve disagrees with the serial solve\n");
    return 1;
  }

  auto stats = (*client)->stats();
  std::printf("lp_client_demo: objective %.6f matches the serial solve "
              "(%llu solves served remotely, %llu local fallbacks)\n",
              remote->value.objective,
              static_cast<unsigned long long>(stats.remote_success),
              static_cast<unsigned long long>(stats.local_fallbacks));
  if (stats.remote_success == 0) {
    std::fprintf(stderr, "no solve actually crossed the socket\n");
    return 1;
  }

  if (want_stats || !trace_file.empty()) {
    auto scraped =
        (*client)->ScrapeStats(0, /*include_trace=*/!trace_file.empty());
    if (!scraped.ok()) {
      std::fprintf(stderr, "stats scrape failed: %s\n",
                   scraped.status().ToString().c_str());
      return 1;
    }
    if (want_stats) {
      std::printf("%s\n", scraped->metrics_json.c_str());
      if (scraped->metrics_json.find("\"wire.daemon.requests\"") ==
          std::string::npos) {
        std::fprintf(stderr, "scraped metrics lack wire.daemon.* counters\n");
        return 1;
      }
      const std::string key = "\"wire.daemon.request_bytes\":{\"count\":";
      const size_t pos = scraped->metrics_json.find(key);
      const unsigned long long histogrammed =
          pos == std::string::npos
              ? 0
              : std::strtoull(scraped->metrics_json.c_str() + pos + key.size(),
                              nullptr, 10);
      if (histogrammed == 0) {
        std::fprintf(stderr,
                     "scraped metrics lack a populated request-bytes "
                     "histogram\n");
        return 1;
      }
      std::printf("lp_client_demo: scraped daemon metrics OK "
                  "(%llu requests histogrammed)\n",
                  histogrammed);
    }
    if (!trace_file.empty()) {
      // The acceptance check for cross-process stitching: some client-side
      // basis-solve span's trace id must appear verbatim in the daemon's
      // exported spans (it crossed inside the request frame).
      uint64_t basis_trace_id = 0;
      for (const auto& event : recorder.Snapshot()) {
        if (std::strcmp(event.name, "engine.basis_solve") == 0 &&
            event.trace_id != 0) {
          basis_trace_id = event.trace_id;
          break;
        }
      }
      const std::string needle =
          "\"trace_id\":" + std::to_string(basis_trace_id);
      if (basis_trace_id == 0 ||
          scraped->trace_json.find(needle) == std::string::npos ||
          scraped->trace_json.find("daemon.solve") == std::string::npos) {
        std::fprintf(stderr,
                     "daemon trace does not share a trace id with the "
                     "client's basis-solve spans\n");
        return 1;
      }
      std::vector<std::string> docs = {recorder.ToChromeJson(),
                                       scraped->trace_json};
      const std::string merged = runtime::trace::MergeChromeTraces(docs);
      std::ofstream out(trace_file, std::ios::binary | std::ios::trunc);
      out << merged;
      out.close();
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n", trace_file.c_str());
        return 1;
      }
      std::printf("lp_client_demo: wrote merged trace (%zu bytes) to %s; "
                  "trace id %llu spans client and daemon\n",
                  merged.size(), trace_file.c_str(),
                  static_cast<unsigned long long>(basis_trace_id));
    }
  }

  if (shutdown_daemon) {
    Status st = (*client)->RequestServerShutdown(0);
    if (!st.ok()) {
      std::fprintf(stderr, "shutdown request failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("lp_client_demo: daemon acknowledged shutdown\n");
  }
  return 0;
}
