// The observability gate, in four parts:
//
//  1. obs core semantics — session lifecycle (one active session per
//     process, sequential sessions fine), span/counter aggregation into
//     the per-name histograms, nested phases recorded as subphases, ring
//     overflow dropping events while the histograms stay complete,
//     stats-only mode (no event storage), and probe behavior with no
//     session.
//  2. Trace well-formedness — chrome_trace_json() of a real engine
//     workload parses as JSON, carries the expected top-level keys,
//     contiguous small tids each with a thread_name metadata event, and
//     per-thread RAII spans that properly nest (network.round events use
//     explicit timestamps spanning transport rounds and are exempt — a
//     phase span may legitimately start mid-round and end mid-round).
//  3. The determinism gate — the reason traces are trustworthy: with the
//     same seed, colors, iteration counts, round accounting and Metrics
//     are bit-identical with tracing on or off, on the Network reference
//     and on the engine at 1 and N threads, for both the Theorem 1.1 and
//     Corollary 1.2 pipelines.
//  4. Histograms — log-bucket boundaries and quantile estimation, capture
//     from spans/counters/value probes, saturation on pathological
//     totals, a charged tree wave staying out of the next network.round
//     sample, shard-merge determinism (the count-valued metric/*
//     histograms of an engine workload are bit-identical at every thread
//     count), and a multi-writer stress test that doubles as the TSan
//     exercise for the lock-free write path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/benchkit/json.h"
#include "src/clique/clique_coloring.h"
#include "src/coloring/theorem11.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/decomposition/corollary12.h"
#include "src/graph/generators.h"
#include "src/mpc/mpc_coloring.h"
#include "src/obs/obs.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/theorem11_program.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

using benchkit::JsonValue;
using benchkit::json_parse;

const obs::HistogramSnapshot* find_hist(const std::vector<obs::HistogramSnapshot>& hists,
                                        const std::string& cat, const std::string& name) {
  for (const obs::HistogramSnapshot& h : hists) {
    if (h.cat == cat && h.name == name) return &h;
  }
  return nullptr;
}

void expect_metrics_eq(const congest::Metrics& a, const congest::Metrics& b,
                       const std::string& where) {
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << where;
}

// ---------------------------------------------------------------------------
// Part 1: obs core semantics.

TEST(ObsCore, EnabledTracksSessionLifetimeAndSequentialSessionsWork) {
  EXPECT_FALSE(obs::enabled());
  {
    obs::TraceSession session;
    EXPECT_TRUE(obs::enabled());
    session.stop();
    EXPECT_FALSE(obs::enabled());
  }
  // A finished session releases the process slot: a fresh one records.
  obs::TraceSession again;
  EXPECT_TRUE(obs::enabled());
  { obs::Span sp(obs::kCatPhase, "core.again"); }
  again.stop();
  const obs::HistogramSnapshot* line = find_hist(again.histograms(), "phase", "core.again");
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->count, 1);
}

TEST(ObsCore, SecondConcurrentSessionThrows) {
  obs::TraceSession session;
  EXPECT_THROW(obs::TraceSession second, std::logic_error);
  // The failed construction must not have clobbered the live session.
  EXPECT_TRUE(obs::enabled());
  { obs::Span sp(obs::kCatPhase, "core.survivor"); }
  session.stop();
  EXPECT_NE(find_hist(session.histograms(), "phase", "core.survivor"), nullptr);
}

TEST(ObsCore, SpansAndCountersAggregateIntoSortedStats) {
  obs::TraceSession session;
  {
    obs::Span sp(obs::kCatPhase, "core.span");
    sp.arg("k", 7);
  }
  { obs::Span sp(obs::kCatPhase, "core.span"); }
  obs::counter(obs::kCatPool, "core.counter", 5);
  obs::counter(obs::kCatPool, "core.counter", 9);
  session.stop();

  const std::vector<obs::HistogramSnapshot>& hists = session.histograms();
  const obs::HistogramSnapshot* span = find_hist(hists, "phase", "core.span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 2);
  EXPECT_GT(span->total, 0);
  EXPECT_GE(span->total, span->max);

  const obs::HistogramSnapshot* ctr = find_hist(hists, "pool", "core.counter");
  ASSERT_NE(ctr, nullptr);
  EXPECT_EQ(ctr->count, 2);
  EXPECT_EQ(ctr->total, 14);
  EXPECT_EQ(ctr->max, 9);

  // Sorted by (cat, name): the contract the phase_wall_ms extraction and
  // the dcolorHistograms block rely on for stable output.
  for (std::size_t i = 1; i < hists.size(); ++i) {
    EXPECT_LE(std::make_pair(hists[i - 1].cat, hists[i - 1].name),
              std::make_pair(hists[i].cat, hists[i].name));
  }
}

// Phases are exclusive per thread: a phase opened inside a live phase or
// cluster span is recorded as a subphase, while sibling phases, and a
// phase after the enclosing span closed, stay phases. A phase on
// another thread is not nested in this thread's spans.
TEST(ObsCore, NestedPhasesAreRecordedAsSubphases) {
  obs::TraceSession session;
  {
    obs::Span outer(obs::kCatPhase, "core.outer");
    { obs::Span inner(obs::kCatPhase, "core.inner"); }
    std::thread([] { obs::Span elsewhere(obs::kCatPhase, "core.elsewhere"); }).join();
  }
  {
    obs::Span cluster(obs::kCatCluster, "core.cluster");
    obs::Span in_cluster(obs::kCatPhase, "core.in_cluster");
  }
  { obs::Span first(obs::kCatPhase, "core.sibling"); }
  { obs::Span second(obs::kCatPhase, "core.sibling"); }
  { obs::Span after(obs::kCatPhase, "core.after"); }
  session.stop();

  const std::vector<obs::HistogramSnapshot>& hists = session.histograms();
  for (const char* name : {"core.inner", "core.in_cluster"}) {
    EXPECT_EQ(find_hist(hists, "phase", name), nullptr) << name;
    const obs::HistogramSnapshot* sub = find_hist(hists, "subphase", name);
    ASSERT_NE(sub, nullptr) << name;
    EXPECT_EQ(sub->count, 1) << name;
  }
  for (const char* name : {"core.outer", "core.elsewhere", "core.after"}) {
    const obs::HistogramSnapshot* phase = find_hist(hists, "phase", name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_EQ(phase->count, 1) << name;
  }
  const obs::HistogramSnapshot* siblings = find_hist(hists, "phase", "core.sibling");
  ASSERT_NE(siblings, nullptr);
  EXPECT_EQ(siblings->count, 2);
  EXPECT_NE(find_hist(hists, "cluster", "core.cluster"), nullptr);
}

TEST(ObsCore, RingOverflowDropsEventsButStatsStayComplete) {
  obs::TraceSession::Options opts;
  opts.buffer_capacity = 4;
  obs::TraceSession session(opts);
  for (int i = 0; i < 100; ++i) {
    obs::Span sp(obs::kCatPhase, "core.overflow");
  }
  session.stop();

  EXPECT_EQ(session.dropped_events(), 96);
  const obs::HistogramSnapshot* line = find_hist(session.histograms(), "phase", "core.overflow");
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->count, 100);  // drops never lose histogram samples

  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(session.chrome_trace_json(), &v, &err)) << err;
  EXPECT_EQ(v.number_or("dcolorDroppedEvents", -1), 96.0);
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int complete_events = 0;
  for (const JsonValue& e : events->array) {
    if (e.string_or("ph", "") == "X") ++complete_events;
  }
  EXPECT_EQ(complete_events, 4);
}

TEST(ObsCore, StatsOnlyModeKeepsStatsWithoutEventStorage) {
  obs::TraceSession::Options opts;
  opts.events = false;
  obs::TraceSession session(opts);
  for (int i = 0; i < 50; ++i) {
    obs::Span sp(obs::kCatPhase, "core.statsonly");
  }
  session.stop();

  EXPECT_EQ(session.dropped_events(), 0);  // nothing dropped: never stored
  const obs::HistogramSnapshot* line =
      find_hist(session.histograms(), "phase", "core.statsonly");
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->count, 50);

  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(session.chrome_trace_json(), &v, &err)) << err;
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const JsonValue& e : events->array) {
    EXPECT_NE(e.string_or("ph", ""), "X");
    EXPECT_NE(e.string_or("ph", ""), "C");
  }
  const JsonValue* hists_obj = v.find("dcolorHistograms");
  ASSERT_NE(hists_obj, nullptr);
  EXPECT_FALSE(hists_obj->object.empty());
}

TEST(ObsCore, ProbesWithoutSessionAreNoOps) {
  ASSERT_FALSE(obs::enabled());
  obs::Span sp(obs::kCatPhase, "core.nosession");
  EXPECT_FALSE(sp.live());
  sp.arg("k", 1);
  obs::complete(obs::kCatPhase, "core.nosession", 0, 1);
  obs::counter(obs::kCatPool, "core.nosession", 1);
  // A later session must not see any of it.
  obs::TraceSession session;
  session.stop();
  EXPECT_EQ(find_hist(session.histograms(), "phase", "core.nosession"), nullptr);
}

// ---------------------------------------------------------------------------
// Part 2: trace well-formedness on a real engine workload.

struct TraceEventView {
  std::string ph;
  std::string cat;
  std::string name;
  double tid = -1;
  double ts = 0;
  double dur = 0;
};

TEST(ObsTrace, ChromeTraceIsWellFormedWithStableTidsAndNestedSpans) {
  const Graph g = make_clustered(4, 10, 0.5, 8, test::kTestSeed + 2);
  const ListInstance inst = ListInstance::delta_plus_one(g);

  obs::TraceSession session;
  const Corollary12Result result = runtime::corollary12_coloring(g, inst, 3);
  session.stop();
  ASSERT_TRUE(inst.valid_solution(result.colors));

  JsonValue v;
  std::string err;
  const std::string json = session.chrome_trace_json();
  ASSERT_TRUE(json_parse(json, &v, &err)) << err;

  // Top-level shape.
  EXPECT_EQ(v.string_or("displayTimeUnit", ""), "ms");
  EXPECT_EQ(v.number_or("dcolorDroppedEvents", -1), 0.0);
  const JsonValue* hists_obj = v.find("dcolorHistograms");
  ASSERT_NE(hists_obj, nullptr);
  ASSERT_EQ(hists_obj->kind, JsonValue::Kind::kObject);
  EXPECT_FALSE(hists_obj->object.empty());
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->array.empty());

  std::set<int> tids;
  std::map<int, std::string> thread_names;
  std::map<int, std::vector<TraceEventView>> complete_by_tid;
  std::set<std::string> span_names;
  for (const JsonValue& e : events->array) {
    TraceEventView ev;
    ev.ph = e.string_or("ph", "");
    ev.cat = e.string_or("cat", "");
    ev.name = e.string_or("name", "");
    ev.tid = e.number_or("tid", -1);
    ev.ts = e.number_or("ts", -1);
    ev.dur = e.number_or("dur", -1);
    ASSERT_TRUE(ev.ph == "M" || ev.ph == "X" || ev.ph == "C") << ev.ph;
    ASSERT_GE(ev.tid, 0.0);
    const int tid = static_cast<int>(ev.tid);
    tids.insert(tid);
    if (ev.ph == "M") {
      EXPECT_EQ(ev.name, "thread_name");
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_TRUE(thread_names.emplace(tid, args->string_or("name", "")).second)
          << "duplicate thread_name metadata for tid " << tid;
    } else if (ev.ph == "X") {
      EXPECT_GE(ev.ts, 0.0);
      EXPECT_GE(ev.dur, 0.0);
      EXPECT_FALSE(ev.cat.empty());
      span_names.insert(ev.name);
      complete_by_tid[tid].push_back(ev);
    }
  }

  // tids are small contiguous integers starting at 0, each with exactly
  // one thread_name metadata event of the canonical form.
  ASSERT_FALSE(tids.empty());
  int expect_tid = 0;
  for (int tid : tids) {
    EXPECT_EQ(tid, expect_tid++);
    auto it = thread_names.find(tid);
    ASSERT_NE(it, thread_names.end()) << "tid " << tid << " lacks thread_name metadata";
    EXPECT_EQ(it->second, "dcolor-t" + std::to_string(tid));
  }
  // threads=3 puts the caller plus both pool workers on the trace (the
  // per-worker counters guarantee each registers a buffer).
  EXPECT_GE(static_cast<int>(tids.size()), 3);

  // The instrumented layers all reported in.
  EXPECT_TRUE(span_names.count("engine.round"));
  EXPECT_TRUE(span_names.count("corollary12.decompose"));
  EXPECT_TRUE(span_names.count("corollary12.class"));
  EXPECT_TRUE(span_names.count("corollary12.cluster"));
  EXPECT_TRUE(span_names.count("theorem11.iteration"));
  EXPECT_TRUE(span_names.count("pool.run_tasks"));
  const obs::HistogramSnapshot* worker_tasks =
      find_hist(session.histograms(), "pool", "pool.worker_tasks");
  ASSERT_NE(worker_tasks, nullptr);
  EXPECT_GE(worker_tasks->count, 3);  // one sample per worker per dispatch

  // RAII spans on one thread follow stack discipline, so their intervals
  // must properly nest. network.round events carry explicit transport
  // timestamps and may straddle phase boundaries — they are exempt.
  for (auto& [tid, evs] : complete_by_tid) {
    std::vector<TraceEventView> spans;
    for (const TraceEventView& ev : evs) {
      if (ev.cat != "network") spans.push_back(ev);
    }
    std::sort(spans.begin(), spans.end(), [](const TraceEventView& a, const TraceEventView& b) {
      if (a.ts != b.ts) return a.ts < b.ts;
      return a.dur > b.dur;  // at equal starts the longer span opens first
    });
    std::vector<double> open_ends;
    for (const TraceEventView& ev : spans) {
      while (!open_ends.empty() && open_ends.back() <= ev.ts) open_ends.pop_back();
      if (!open_ends.empty()) {
        EXPECT_LE(ev.ts + ev.dur, open_ends.back())
            << "span " << ev.name << " on tid " << tid << " partially overlaps its enclosing span";
      }
      open_ends.push_back(ev.ts + ev.dur);
    }
  }
}

// ---------------------------------------------------------------------------
// Part 3: the determinism gate — tracing never perturbs results.

TEST(ObsDeterminism, Theorem11IdenticalWithTracingOnAndOff) {
  const Graph g = make_gnp(48, 0.15, test::kTestSeed + 7);
  const ListInstance inst = ListInstance::delta_plus_one(g);

  const Theorem11Result ref = theorem11_solve_per_component(g, inst);
  ASSERT_TRUE(inst.valid_solution(ref.colors));

  {
    obs::TraceSession session;
    const Theorem11Result traced = theorem11_solve_per_component(g, inst);
    session.stop();
    EXPECT_EQ(traced.colors, ref.colors) << "network, traced";
    EXPECT_EQ(traced.iterations, ref.iterations);
    EXPECT_EQ(traced.input_colors, ref.input_colors);
    expect_metrics_eq(traced.metrics, ref.metrics, "network, traced");
  }

  for (int threads : {1, 3}) {
    const std::string where = "engine t" + std::to_string(threads);
    const Theorem11Result plain = runtime::theorem11_coloring(g, inst, threads);
    obs::TraceSession session;
    const Theorem11Result traced = runtime::theorem11_coloring(g, inst, threads);
    session.stop();
    EXPECT_EQ(traced.colors, plain.colors) << where;
    EXPECT_EQ(traced.colors, ref.colors) << where;
    EXPECT_EQ(traced.iterations, ref.iterations) << where;
    expect_metrics_eq(traced.metrics, plain.metrics, where);
    expect_metrics_eq(traced.metrics, ref.metrics, where);
  }
}

TEST(ObsDeterminism, Corollary12IdenticalWithTracingOnAndOff) {
  const Graph g = make_clustered(4, 10, 0.5, 8, test::kTestSeed + 2);
  const ListInstance inst =
      ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 31);

  const Corollary12Result ref = corollary12_solve(g, inst);
  ASSERT_TRUE(inst.valid_solution(ref.colors));

  {
    obs::TraceSession session;
    const Corollary12Result traced = corollary12_solve(g, inst);
    session.stop();
    EXPECT_EQ(traced.colors, ref.colors) << "network, traced";
    EXPECT_EQ(traced.total_rounds, ref.total_rounds);
    EXPECT_EQ(traced.decomposition_rounds, ref.decomposition_rounds);
    EXPECT_EQ(traced.coloring_rounds, ref.coloring_rounds);
    expect_metrics_eq(traced.metrics, ref.metrics, "network, traced");
  }

  for (int threads : {1, 3}) {
    const std::string where = "engine t" + std::to_string(threads);
    const Corollary12Result plain = runtime::corollary12_coloring(g, inst, threads);
    obs::TraceSession session;
    const Corollary12Result traced = runtime::corollary12_coloring(g, inst, threads);
    session.stop();
    EXPECT_EQ(traced.colors, plain.colors) << where;
    EXPECT_EQ(traced.colors, ref.colors) << where;
    EXPECT_EQ(traced.total_rounds, ref.total_rounds) << where;
    EXPECT_EQ(traced.decomposition_rounds, ref.decomposition_rounds) << where;
    EXPECT_EQ(traced.coloring_rounds, ref.coloring_rounds) << where;
    expect_metrics_eq(traced.metrics, plain.metrics, where);
    expect_metrics_eq(traced.metrics, ref.metrics, where);
  }
}

// The clique and MPC algorithms run no transport; their one phase span is
// derand.math around each segment_derand_step, and tracing it must leave
// every color and charge untouched.
TEST(ObsDeterminism, CliqueAndMpcIdenticalWithTracingOnAndOff) {
  const Graph g = make_near_regular(64, 4, test::kTestSeed + 5);
  const ListInstance inst = ListInstance::delta_plus_one(g);

  const clique::CliqueColoringResult clique_ref = clique::clique_list_coloring(g, inst);
  const mpc::MpcColoringResult linear_ref = mpc::mpc_list_coloring_linear(g, inst);
  const mpc::MpcColoringResult sublinear_ref = mpc::mpc_list_coloring_sublinear(g, inst, 0.6);
  ASSERT_TRUE(inst.valid_solution(clique_ref.colors));
  ASSERT_TRUE(inst.valid_solution(linear_ref.colors));
  ASSERT_TRUE(inst.valid_solution(sublinear_ref.colors));

  obs::TraceSession session;
  const clique::CliqueColoringResult clique_traced = clique::clique_list_coloring(g, inst);
  const mpc::MpcColoringResult linear_traced = mpc::mpc_list_coloring_linear(g, inst);
  const mpc::MpcColoringResult sublinear_traced = mpc::mpc_list_coloring_sublinear(g, inst, 0.6);
  session.stop();

  EXPECT_EQ(clique_traced.colors, clique_ref.colors);
  EXPECT_EQ(clique_traced.commit_cycles, clique_ref.commit_cycles);
  EXPECT_EQ(clique_traced.derand_passes, clique_ref.derand_passes);
  EXPECT_EQ(clique_traced.final_subgraph_size, clique_ref.final_subgraph_size);
  expect_metrics_eq(clique_traced.metrics, clique_ref.metrics, "clique, traced");
  for (const auto& [traced, ref, where] :
       {std::tuple{&linear_traced, &linear_ref, "mpc linear"},
        std::tuple{&sublinear_traced, &sublinear_ref, "mpc sublinear"}}) {
    EXPECT_EQ(traced->colors, ref->colors) << where;
    EXPECT_EQ(traced->commit_cycles, ref->commit_cycles) << where;
    EXPECT_EQ(traced->derand_passes, ref->derand_passes) << where;
    EXPECT_EQ(traced->lemma42_passes, ref->lemma42_passes) << where;
    EXPECT_EQ(traced->finished_on_one_machine, ref->finished_on_one_machine) << where;
    EXPECT_EQ(traced->metrics.rounds, ref->metrics.rounds) << where;
    EXPECT_EQ(traced->metrics.words_communicated, ref->metrics.words_communicated) << where;
    EXPECT_EQ(traced->metrics.max_round_load, ref->metrics.max_round_load) << where;
  }
  const obs::HistogramSnapshot* math =
      find_hist(session.histograms(), obs::kCatPhase, "derand.math");
  ASSERT_NE(math, nullptr);
  EXPECT_GT(math->count, 0);
}

// ---------------------------------------------------------------------------
// Part 4: histograms.

TEST(ObsHistogram, BucketBoundariesArePowersOfTwo) {
  // Bucket 0 holds v <= 0; bucket b holds 2^(b-1) <= v < 2^b.
  EXPECT_EQ(obs::histogram_bucket(-5), 0);
  EXPECT_EQ(obs::histogram_bucket(0), 0);
  EXPECT_EQ(obs::histogram_bucket(1), 1);
  EXPECT_EQ(obs::histogram_bucket(2), 2);
  EXPECT_EQ(obs::histogram_bucket(3), 2);
  EXPECT_EQ(obs::histogram_bucket(4), 3);
  EXPECT_EQ(obs::histogram_bucket(7), 3);
  EXPECT_EQ(obs::histogram_bucket(8), 4);
  EXPECT_EQ(obs::histogram_bucket((std::int64_t{1} << 62) - 1), 62);
  EXPECT_EQ(obs::histogram_bucket(std::int64_t{1} << 62), 63);
  EXPECT_EQ(obs::histogram_bucket(std::numeric_limits<std::int64_t>::max()), 63);

  EXPECT_EQ(obs::histogram_bucket_upper(0), 0);
  EXPECT_EQ(obs::histogram_bucket_upper(1), 1);
  EXPECT_EQ(obs::histogram_bucket_upper(2), 3);
  EXPECT_EQ(obs::histogram_bucket_upper(3), 7);
  EXPECT_EQ(obs::histogram_bucket_upper(63), std::numeric_limits<std::int64_t>::max());
  // Every positive value lands in the bucket whose range contains it.
  for (std::int64_t v : {std::int64_t{1}, std::int64_t{5}, std::int64_t{1000},
                         std::int64_t{1} << 40}) {
    const int b = obs::histogram_bucket(v);
    EXPECT_LE(v, obs::histogram_bucket_upper(b));
    EXPECT_GT(v, obs::histogram_bucket_upper(b - 1));
  }
}

TEST(ObsHistogram, QuantileEstimatesFromBucketsClampedToObservedRange) {
  obs::HistogramSnapshot h;
  EXPECT_EQ(obs::histogram_quantile(h, 0.5), 0);  // empty -> 0

  // Values {1, 2, 4, 8}: buckets 1, 2, 3, 4.
  h.count = 4;
  h.min = 1;
  h.max = 8;
  h.buckets[1] = 1;
  h.buckets[2] = 1;
  h.buckets[3] = 1;
  h.buckets[4] = 1;
  EXPECT_EQ(obs::histogram_quantile(h, 0.0), 1);   // rank clamps to 1
  EXPECT_EQ(obs::histogram_quantile(h, 0.25), 1);  // bucket 1 upper = 1
  EXPECT_EQ(obs::histogram_quantile(h, 0.50), 3);  // bucket 2 upper = 3
  EXPECT_EQ(obs::histogram_quantile(h, 0.75), 7);  // bucket 3 upper = 7
  EXPECT_EQ(obs::histogram_quantile(h, 1.0), 8);   // bucket 4 upper 15 clamps to max
}

TEST(ObsHistogram, SpansCountersAndValueProbesAllCapture) {
  obs::TraceSession session;
  { obs::Span sp(obs::kCatPhase, "hist.span"); }
  obs::counter(obs::kCatPool, "hist.counter", 5);
  obs::counter(obs::kCatPool, "hist.counter", 9);
  obs::value(obs::kCatMetric, "hist.value", 3);
  obs::value(obs::kCatMetric, "hist.value", 12);
  session.stop();

  const std::vector<obs::HistogramSnapshot>& hists = session.histograms();
  // Sorted by (cat, name).
  for (std::size_t i = 1; i < hists.size(); ++i) {
    EXPECT_LE(std::make_pair(hists[i - 1].cat, hists[i - 1].name),
              std::make_pair(hists[i].cat, hists[i].name));
  }

  const obs::HistogramSnapshot* span = find_hist(hists, "phase", "hist.span");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->count, 1);
  EXPECT_EQ(span->min, span->max);

  const obs::HistogramSnapshot* ctr = find_hist(hists, "pool", "hist.counter");
  ASSERT_NE(ctr, nullptr);
  EXPECT_EQ(ctr->count, 2);
  EXPECT_EQ(ctr->total, 14);
  EXPECT_EQ(ctr->min, 5);
  EXPECT_EQ(ctr->max, 9);
  EXPECT_EQ(ctr->buckets[obs::histogram_bucket(5)], 1);
  EXPECT_EQ(ctr->buckets[obs::histogram_bucket(9)], 1);

  // Value probes land under kCatMetric — NOT kCatPhase — so they can
  // never leak into the phase_wall_ms breakdown benchkit extracts.
  const obs::HistogramSnapshot* val = find_hist(hists, "metric", "hist.value");
  ASSERT_NE(val, nullptr);
  EXPECT_EQ(val->count, 2);
  EXPECT_EQ(val->total, 15);
  EXPECT_EQ(val->min, 3);
  EXPECT_EQ(val->max, 12);
  EXPECT_EQ(find_hist(hists, "phase", "hist.value"), nullptr);

  // The no-session path is a no-op, like every other probe.
  obs::value(obs::kCatMetric, "hist.nosession", 1);
}

TEST(ObsHistogram, TotalsSaturateInsteadOfOverflowing) {
  obs::TraceSession session;
  obs::value(obs::kCatMetric, "hist.sat", std::numeric_limits<std::int64_t>::max());
  obs::value(obs::kCatMetric, "hist.sat", std::numeric_limits<std::int64_t>::max());
  session.stop();
  const obs::HistogramSnapshot* h = find_hist(session.histograms(), "metric", "hist.sat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->total, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h->max, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(h->buckets[63], 2);
}

// A Lemma 2.6 wave is charged in closed form (Network::charge), not run
// as rounds. Charged between two real rounds, its traffic must not leak
// into the second round's network.round span or its
// metric/network.round_messages sample.
TEST(ObsHistogram, ChargedWaveStaysOutOfTheNextNetworkRound) {
  const Graph g = make_path(6);
  congest::TreeData tree;
  {
    congest::Network probe(g);
    runtime::build_tree_data(probe, 0, &tree);
  }
  const congest::Metrics wave = congest::wave_cost(tree, 64, 40);
  ASSERT_EQ(wave.messages, 5);

  obs::TraceSession session;
  congest::Network net(g, 40);
  net.send(0, 1, 1, 1);
  net.advance_round();
  net.charge(wave);
  net.send(2, 3, 1, 1);
  net.send(3, 4, 1, 1);
  net.advance_round();
  session.stop();
  EXPECT_EQ(net.metrics().messages, 1 + 5 + 2);

  const obs::HistogramSnapshot* h =
      find_hist(session.histograms(), "metric", "network.round_messages");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->total, 3);
  EXPECT_EQ(h->min, 1);
  EXPECT_EQ(h->max, 2);

  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(session.chrome_trace_json(), &v, &err)) << err;
  std::vector<double> span_messages, span_bits;
  for (const JsonValue& e : v.find("traceEvents")->array) {
    if (e.string_or("name", "") != "network.round") continue;
    const JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    span_messages.push_back(args->number_or("messages", -1));
    span_bits.push_back(args->number_or("bits", -1));
  }
  EXPECT_EQ(span_messages, (std::vector<double>{1, 2}));
  EXPECT_EQ(span_bits, (std::vector<double>{1, 2}));
}

void expect_hist_eq(const obs::HistogramSnapshot& a, const obs::HistogramSnapshot& b,
                    const std::string& where) {
  EXPECT_EQ(a.count, b.count) << where;
  EXPECT_EQ(a.total, b.total) << where;
  EXPECT_EQ(a.min, b.min) << where;
  EXPECT_EQ(a.max, b.max) << where;
  EXPECT_EQ(a.buckets, b.buckets) << where;
}

TEST(ObsHistogram, MetricHistogramsBitIdenticalAcrossThreadCounts) {
  // The merged histogram is a pure function of the recorded multiset, and
  // the count-valued metric/* probes record deterministic quantities
  // (roster sizes, message counts, cluster sizes) — so the snapshots must
  // be BIT-identical whether one thread recorded everything or N threads
  // recorded shards of it.
  const Graph g = make_clustered(4, 10, 0.5, 8, test::kTestSeed + 2);
  const ListInstance inst = ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 31);

  std::vector<obs::HistogramSnapshot> base;
  {
    obs::TraceSession session;
    const Corollary12Result r = runtime::corollary12_coloring(g, inst, 1);
    session.stop();
    ASSERT_TRUE(inst.valid_solution(r.colors));
    base = session.histograms();
  }
  ASSERT_NE(find_hist(base, "metric", "engine.roster"), nullptr);
  ASSERT_NE(find_hist(base, "metric", "engine.round_messages"), nullptr);
  ASSERT_NE(find_hist(base, "metric", "corollary12.cluster_members"), nullptr);

  for (int threads : {2, 3}) {
    obs::TraceSession session;
    const Corollary12Result r = runtime::corollary12_coloring(g, inst, threads);
    session.stop();
    ASSERT_TRUE(inst.valid_solution(r.colors));
    const std::vector<obs::HistogramSnapshot>& hists = session.histograms();
    for (const obs::HistogramSnapshot& b : base) {
      if (b.cat != obs::kCatMetric) continue;
      const obs::HistogramSnapshot* h = find_hist(hists, b.cat, b.name);
      ASSERT_NE(h, nullptr) << b.name << " t" << threads;
      expect_hist_eq(*h, b, b.name + " t" + std::to_string(threads));
    }
    // Time-valued phase histograms keep deterministic COUNTS (durations
    // vary run to run).
    for (const obs::HistogramSnapshot& b : base) {
      if (b.cat != obs::kCatPhase) continue;
      const obs::HistogramSnapshot* h = find_hist(hists, b.cat, b.name);
      ASSERT_NE(h, nullptr) << b.name << " t" << threads;
      EXPECT_EQ(h->count, b.count) << b.name << " t" << threads;
    }
  }
}

TEST(ObsHistogram, ConcurrentWritersMergeExactly) {
  // Multi-thread shard stress: every recorded value must be counted
  // exactly once after the merge. Under TSan this doubles as the data-race
  // gate for the per-thread write path.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  obs::TraceSession::Options opts;
  opts.events = false;
  obs::TraceSession session(opts);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::value(obs::kCatMetric, "hist.stress", (t * kPerThread + i) % 1000);
        obs::counter(obs::kCatPool, "hist.stress_ctr", i);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  session.stop();

  const obs::HistogramSnapshot* h = find_hist(session.histograms(), "metric", "hist.stress");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::int64_t>(kThreads) * kPerThread);
  std::int64_t bucket_sum = 0;
  for (int b = 0; b < obs::kNumHistogramBuckets; ++b) bucket_sum += h->buckets[b];
  EXPECT_EQ(bucket_sum, h->count);
  EXPECT_EQ(h->min, 0);
  EXPECT_EQ(h->max, 999);

  const obs::HistogramSnapshot* c = find_hist(session.histograms(), "pool", "hist.stress_ctr");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->count, static_cast<std::int64_t>(kThreads) * kPerThread);
}

TEST(ObsHistogram, ChromeTraceJsonCarriesHistogramBlock) {
  obs::TraceSession session;
  obs::value(obs::kCatMetric, "hist.json", 6);
  obs::value(obs::kCatMetric, "hist.json", 9);
  session.stop();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(session.chrome_trace_json(), &v, &err)) << err;
  const JsonValue* hists = v.find("dcolorHistograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->kind, JsonValue::Kind::kObject);
  const JsonValue* h = hists->find("metric/hist.json");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->number_or("count", -1), 2.0);
  EXPECT_EQ(h->number_or("total", -1), 15.0);
  EXPECT_EQ(h->number_or("min", -1), 6.0);
  EXPECT_EQ(h->number_or("max", -1), 9.0);
  const JsonValue* buckets = h->find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(buckets->number_or("3", 0), 1.0);  // 6 -> bucket 3
  EXPECT_EQ(buckets->number_or("4", 0), 1.0);  // 9 -> bucket 4
}

}  // namespace
}  // namespace dcolor
