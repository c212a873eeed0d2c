// TraceRecorder / TraceSpan (label `quick`): the observability acceptance
// pins. (1) Determinism: the multiset of span name-paths a traced
// coordinator solve records is identical across {1,2,8} runtime threads x
// {1,2,4} service shards — tracing observes the transcript, it never
// depends on scheduling. (2) Cost: a null or disabled recorder allocates
// NOTHING on the span hot path (global operator new is instrumented in this
// TU). (3) Export: the Chrome trace_event JSON parses with a real JSON
// grammar, starts ts-monotonic, and MergeChromeTraces splices documents
// Perfetto-loadably. (4) The async RecordComplete form and ContextScope
// parent spans correctly across threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/models/coordinator/coordinator_solver.h"
#include "src/problems/linear_program.h"
#include "src/runtime/metrics.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/runtime/trace.h"
#include "src/util/rng.h"
#include "src/workload/generators.h"
#include "tests/testing_util.h"

// ------------------------------------------------- allocation instrumenting
//
// Counting passthrough for the WHOLE test binary: when armed, every global
// operator new bumps the counter. The zero-allocation test arms it around
// the disabled-recorder hot path only.

namespace {
std::atomic<size_t> g_new_calls{0};
std::atomic<bool> g_count_news{false};

void* CountingAlloc(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountingAlloc(size); }
void* operator new[](std::size_t size) { return CountingAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lplow {
namespace {

namespace trace = runtime::trace;
using trace::SpanContext;
using trace::TraceRecorder;
using trace::TraceSpan;

// ------------------------------------------------------ tiny JSON grammar

void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) {
    ++*i;
  }
}

bool ParseJsonString(const std::string& s, size_t* i) {
  if (*i >= s.size() || s[*i] != '"') return false;
  ++*i;
  while (*i < s.size() && s[*i] != '"') {
    if (s[*i] == '\\') ++*i;
    ++*i;
  }
  if (*i >= s.size()) return false;
  ++*i;
  return true;
}

bool ParseJsonValue(const std::string& s, size_t* i);

bool ParseJsonSequence(const std::string& s, size_t* i, char close,
                       bool keyed) {
  ++*i;  // Consume the opener.
  SkipWs(s, i);
  if (*i < s.size() && s[*i] == close) {
    ++*i;
    return true;
  }
  for (;;) {
    SkipWs(s, i);
    if (keyed) {
      if (!ParseJsonString(s, i)) return false;
      SkipWs(s, i);
      if (*i >= s.size() || s[*i] != ':') return false;
      ++*i;
    }
    if (!ParseJsonValue(s, i)) return false;
    SkipWs(s, i);
    if (*i < s.size() && s[*i] == ',') {
      ++*i;
      continue;
    }
    if (*i < s.size() && s[*i] == close) {
      ++*i;
      return true;
    }
    return false;
  }
}

bool ParseJsonValue(const std::string& s, size_t* i) {
  SkipWs(s, i);
  if (*i >= s.size()) return false;
  const char c = s[*i];
  if (c == '{') return ParseJsonSequence(s, i, '}', /*keyed=*/true);
  if (c == '[') return ParseJsonSequence(s, i, ']', /*keyed=*/false);
  if (c == '"') return ParseJsonString(s, i);
  if (s.compare(*i, 4, "true") == 0) return *i += 4, true;
  if (s.compare(*i, 5, "false") == 0) return *i += 5, true;
  if (s.compare(*i, 4, "null") == 0) return *i += 4, true;
  const size_t start = *i;
  while (*i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[*i])) || s[*i] == '-' ||
          s[*i] == '+' || s[*i] == '.' || s[*i] == 'e' || s[*i] == 'E')) {
    ++*i;
  }
  return *i > start;
}

bool IsValidJson(const std::string& s) {
  size_t i = 0;
  if (!ParseJsonValue(s, &i)) return false;
  SkipWs(s, &i);
  return i == s.size();
}

// ----------------------------------------------------------- span basics

TEST(TraceSpanTest, NestedSpansParentUnderEachOther) {
  TraceRecorder rec(true);
  SpanContext outer_ctx;
  SpanContext inner_ctx;
  {
    TraceSpan outer(&rec, "outer");
    outer.Arg("job_id", 7);
    outer_ctx = outer.context();
    EXPECT_TRUE(outer_ctx.valid());
    EXPECT_EQ(rec.CurrentContext().span_id, outer_ctx.span_id);
    {
      TraceSpan inner(&rec, "inner");
      inner_ctx = inner.context();
      EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
      EXPECT_EQ(rec.CurrentContext().span_id, inner_ctx.span_id);
    }
    EXPECT_EQ(rec.CurrentContext().span_id, outer_ctx.span_id);
  }
  EXPECT_FALSE(rec.CurrentContext().valid());

  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  std::map<std::string, TraceRecorder::EventRecord> by_name;
  for (const auto& e : events) by_name[e.name] = e;
  EXPECT_EQ(by_name["inner"].parent_span_id, outer_ctx.span_id);
  EXPECT_EQ(by_name["outer"].parent_span_id, 0u);
  EXPECT_EQ(by_name["outer"].num_args, 1);
  EXPECT_EQ(std::string(by_name["outer"].args[0].key), "job_id");
  EXPECT_EQ(by_name["outer"].args[0].value, 7u);
}

TEST(TraceSpanTest, AsyncRecordCompleteAndCrossThreadContextScope) {
  TraceRecorder rec(true);
  SpanContext root_ctx;
  {
    TraceSpan root(&rec, "root");
    root_ctx = root.context();
    // A worker thread re-installs the submitter's context and nests under
    // it — the ShardedSolverService pattern.
    std::thread worker([&] {
      trace::ContextScope scope(&rec, root_ctx);
      TraceSpan child(&rec, "child");
      EXPECT_EQ(child.context().trace_id, root_ctx.trace_id);
    });
    worker.join();
    // The async form: explicit timestamps measured across threads.
    const uint64_t t0 = TraceRecorder::NowMicros();
    SpanContext async_ctx =
        rec.RecordComplete("async", t0, t0 + 5, root_ctx, {{"shard", 3}});
    EXPECT_EQ(async_ctx.trace_id, root_ctx.trace_id);
  }
  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::map<std::string, TraceRecorder::EventRecord> by_name;
  for (const auto& e : events) by_name[e.name] = e;
  EXPECT_EQ(by_name["child"].parent_span_id, root_ctx.span_id);
  EXPECT_EQ(by_name["child"].trace_id, root_ctx.trace_id);
  EXPECT_EQ(by_name["async"].parent_span_id, root_ctx.span_id);
  EXPECT_EQ(by_name["async"].dur_us, 5u);
  ASSERT_EQ(by_name["async"].num_args, 1);
  EXPECT_EQ(by_name["async"].args[0].value, 3u);
  // The worker recorded under its own registration index.
  EXPECT_NE(by_name["child"].tid, by_name["root"].tid);
}

TEST(TraceSpanTest, ExplicitParentAdoptsTheWireContext) {
  // The daemon-side pattern: the parent arrived inside a request frame.
  TraceRecorder rec(true);
  const SpanContext wire_ctx{0xABCD, 0x1234};
  {
    TraceSpan span(&rec, "daemon.request", wire_ctx);
    EXPECT_EQ(span.context().trace_id, wire_ctx.trace_id);
  }
  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, wire_ctx.trace_id);
  EXPECT_EQ(events[0].parent_span_id, wire_ctx.span_id);
}

// ------------------------------------------------------- zero allocation

TEST(TraceOverheadTest, DisabledRecorderAllocatesNothingOnTheHotPath) {
  TraceRecorder disabled(/*enabled=*/false);
  TraceRecorder* null_recorder = nullptr;

  g_new_calls.store(0);
  g_count_news.store(true);
  for (uint64_t i = 0; i < 1000; ++i) {
    TraceSpan span(&disabled, "engine.iteration");
    span.Arg("iteration", i);
    TraceSpan inert(null_recorder, "engine.basis_solve");
    inert.Arg("constraints", 99);
    trace::ContextScope scope(&disabled, SpanContext{1, 2});
    (void)disabled.CurrentContext();
    (void)disabled.RecordComplete("service.queue_wait", 0, 1, SpanContext{});
  }
  g_count_news.store(false);

  EXPECT_EQ(g_new_calls.load(), 0u)
      << "the disabled-tracing hot path allocated";
  EXPECT_EQ(disabled.event_count(), 0u);
}

// --------------------------------------------------- cross-config determinism

/// One traced coordinator solve with every basis solve routed through a
/// ShardedSolverService; returns the multiset of span name-paths (each span
/// named by its ancestor chain, e.g. "engine.run/engine.iteration").
std::multiset<std::string> RunTracedSolve(size_t num_threads,
                                          size_t num_shards) {
  TraceRecorder recorder(true);
  runtime::MetricsRegistry registry;
  runtime::ShardedSolverService::Options service_options;
  service_options.num_shards = num_shards;
  service_options.metrics = &registry;
  service_options.trace = &recorder;
  runtime::ShardedSolverService service(service_options);

  Rng rng(0x7EAC0DEULL);
  auto inst = workload::RandomFeasibleLp(2000, 2, &rng);
  LinearProgram problem(inst.objective);
  auto parts = workload::Partition(inst.constraints, 4, true, &rng);

  coord::CoordinatorOptions opt;
  opt.net.scale = 0.1;
  opt.seed = 0x7EAC0DEULL;
  opt.runtime.num_threads = num_threads;
  opt.runtime.trace = &recorder;
  opt.runtime.solver_backend = &service;
  opt.runtime.oversized_basis_threshold = 1;  // Route every basis solve.
  auto result = coord::SolveCoordinator(problem, parts, opt, nullptr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  service.Drain();

  auto events = recorder.Snapshot();
  std::map<uint64_t, const TraceRecorder::EventRecord*> by_id;
  for (const auto& e : events) by_id[e.span_id] = &e;
  std::multiset<std::string> paths;
  for (const auto& e : events) {
    std::string path = e.name;
    uint64_t parent = e.parent_span_id;
    size_t depth = 0;
    while (parent != 0 && by_id.count(parent) != 0 && depth++ < 64) {
      path = std::string(by_id[parent]->name) + "/" + path;
      parent = by_id[parent]->parent_span_id;
    }
    paths.insert(path);
  }
  return paths;
}

TEST(TraceDeterminismTest, SpanTreeIsIdenticalAcrossThreadsAndShards) {
  const auto baseline = RunTracedSolve(1, 1);

  // The taxonomy actually showed up, parented the documented way.
  auto count_prefix = [&](const std::string& needle) {
    size_t n = 0;
    for (const auto& p : baseline) {
      if (p.find(needle) != std::string::npos) ++n;
    }
    return n;
  };
  EXPECT_GT(count_prefix("engine.run"), 0u);
  EXPECT_GT(count_prefix("engine.run/engine.iteration"), 0u);
  EXPECT_GT(count_prefix("engine.iteration/engine.violator_scan"), 0u);
  EXPECT_GT(count_prefix("engine.basis_solve"), 0u);
  EXPECT_GT(count_prefix("engine.basis_solve/service.execute"), 0u);
  EXPECT_EQ(count_prefix("service.queue_wait"),
            count_prefix("service.execute"));

  // The pin: same span tree for every threads x shards configuration.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      EXPECT_EQ(RunTracedSolve(threads, shards), baseline)
          << threads << " threads x " << shards << " shards drifted";
    }
  }
}

// ------------------------------------------------------------------ export

TEST(TraceExportTest, ChromeJsonParsesAndIsMonotonic) {
  TraceRecorder rec(true);
  rec.SetProcessLabel("trace_test");
  {
    TraceSpan a(&rec, "alpha");
    a.Arg("bytes", 123);
    TraceSpan b(&rec, "beta \"quoted\\name\"");  // Exercises escaping.
  }
  std::thread t([&] { TraceSpan c(&rec, "gamma"); });
  t.join();

  const std::string json = rec.ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process_name.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("trace_test"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":123"), std::string::npos);

  // Snapshot (= exporter order) is sorted by start timestamp.
  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
  // Distinct threads got distinct registration indices, dense from 0.
  std::set<uint32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 2u);
  EXPECT_EQ(*tids.begin(), 0u);
}

TEST(TraceExportTest, MergeChromeTracesSplicesDocuments) {
  TraceRecorder a(true);
  TraceRecorder b(true);
  { TraceSpan s(&a, "alpha"); }
  { TraceSpan s(&b, "beta"); }
  TraceRecorder empty(true);

  std::vector<std::string> docs = {a.ToChromeJson(), std::string(),
                                   empty.ToChromeJson(), b.ToChromeJson()};
  const std::string merged = trace::MergeChromeTraces(docs);
  EXPECT_TRUE(IsValidJson(merged)) << merged;
  EXPECT_NE(merged.find("alpha"), std::string::npos);
  EXPECT_NE(merged.find("beta"), std::string::npos);

  // Degenerate input: nothing to splice still yields a valid document.
  std::vector<std::string> none;
  EXPECT_TRUE(IsValidJson(trace::MergeChromeTraces(none)));
}

TEST(TraceExportTest, ClearDropsEventsButKeepsRegistrations) {
  TraceRecorder rec(true);
  { TraceSpan s(&rec, "one"); }
  EXPECT_EQ(rec.event_count(), 1u);
  rec.Clear();
  EXPECT_EQ(rec.event_count(), 0u);
  { TraceSpan s(&rec, "two"); }
  auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), "two");
}

}  // namespace
}  // namespace lplow
