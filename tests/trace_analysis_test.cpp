// dcolor-trace's engine: trace parsing, critical-path extraction, and
// the two-run phase diff behind the baseline gate's attribution table.
// Everything here is deterministic text over parsed numbers, so the
// expected outputs are golden substrings, not regexes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/obs/trace_analysis.h"

namespace dcolor::obs {
namespace {

// A hand-written chrome trace covering the event shapes the analyzer
// consumes: engine.run / engine.round spans with args, phase spans on
// two threads, pool counters, metadata (skipped), and a dropped count.
const char* kTrace = R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"dcolor-t0"}},
    {"ph":"X","pid":1,"tid":0,"ts":0.0,"dur":1000.0,"cat":"engine","name":"engine.run","args":{"threads":2}},
    {"ph":"X","pid":1,"tid":0,"ts":10.0,"dur":400.0,"cat":"engine","name":"engine.round","args":{"round":0,"roster":100,"messages":250}},
    {"ph":"X","pid":1,"tid":0,"ts":500.0,"dur":300.0,"cat":"engine","name":"engine.round","args":{"round":1,"roster":60,"messages":90}},
    {"ph":"X","pid":1,"tid":0,"ts":20.0,"dur":200.0,"cat":"phase","name":"phase.alpha","args":{}},
    {"ph":"X","pid":1,"tid":1,"ts":30.0,"dur":500.0,"cat":"phase","name":"phase.beta","args":{}},
    {"ph":"X","pid":1,"tid":1,"ts":600.0,"dur":100.0,"cat":"phase","name":"phase.beta","args":{}},
    {"ph":"C","pid":1,"tid":1,"ts":900.0,"cat":"pool","name":"pool.worker_busy_ns","args":{"value":500000}},
    {"ph":"C","pid":1,"tid":1,"ts":900.0,"cat":"pool","name":"pool.worker_idle_ns","args":{"value":250000}},
    {"ph":"C","pid":1,"tid":1,"ts":900.0,"cat":"pool","name":"pool.worker_tasks","args":{"value":7}},
    {"ph":"C","pid":1,"tid":1,"ts":900.0,"cat":"pool","name":"pool.worker_steals","args":{"value":2}}
  ],
  "dcolorHistograms": {},
  "dcolorDroppedEvents": 3
})";

TEST(TraceAnalysis, ParsesEventsArgsAndDroppedCount) {
  TraceData t;
  std::string err;
  ASSERT_TRUE(parse_trace_json(kTrace, &t, &err)) << err;
  EXPECT_EQ(t.dropped_events, 3);
  // 10 X/C events; the metadata event is skipped.
  ASSERT_EQ(t.events.size(), 10u);
  const TraceEvent& run = t.events[0];
  EXPECT_EQ(run.ph, 'X');
  EXPECT_EQ(run.cat, "engine");
  EXPECT_EQ(run.name, "engine.run");
  EXPECT_EQ(run.dur_us, 1000.0);
  EXPECT_EQ(run.arg_or("threads", -1), 2.0);
  EXPECT_EQ(run.arg_or("absent", -1), -1.0);
  // 'C' events surface the counter value through dur_us.
  const TraceEvent& busy = t.events[6];
  EXPECT_EQ(busy.ph, 'C');
  EXPECT_EQ(busy.name, "pool.worker_busy_ns");
  EXPECT_EQ(busy.dur_us, 500000.0);
}

TEST(TraceAnalysis, RejectsMalformedInput) {
  TraceData t;
  std::string err;
  EXPECT_FALSE(parse_trace_json("{nope", &t, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_trace_json("[1,2]", &t, &err));
  EXPECT_FALSE(parse_trace_json("{\"traceEvents\": 5}", &t, &err));
  EXPECT_FALSE(load_trace_file("/nonexistent/TRACE_x.json", &t, &err));
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(TraceAnalysis, CriticalPathExtractsRoundsPhasesAndThreadSlack) {
  TraceData t;
  std::string err;
  ASSERT_TRUE(parse_trace_json(kTrace, &t, &err)) << err;
  const CriticalPathReport r = analyze_critical_path(t);

  EXPECT_EQ(r.runs, 1);
  EXPECT_EQ(r.wall_us, 1000.0);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.round_total_us, 700.0);
  // Slowest round first.
  ASSERT_EQ(r.top_rounds.size(), 2u);
  EXPECT_EQ(r.top_rounds[0].round, 0);
  EXPECT_EQ(r.top_rounds[0].dur_us, 400.0);
  EXPECT_EQ(r.top_rounds[0].roster, 100);
  EXPECT_EQ(r.top_rounds[0].messages, 250);
  EXPECT_EQ(r.top_rounds[1].round, 1);
  // Phases ranked by total desc: beta (600) before alpha (200).
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].name, "phase.beta");
  EXPECT_EQ(r.phases[0].count, 2);
  EXPECT_EQ(r.phases[0].total_us, 600.0);
  EXPECT_EQ(r.phases[0].max_us, 500.0);
  EXPECT_EQ(r.phases[1].name, "phase.alpha");
  // Pool counters accumulate per tid (ns -> us for the time counters).
  ASSERT_EQ(r.threads.size(), 1u);
  EXPECT_EQ(r.threads[0].tid, 1);
  EXPECT_EQ(r.threads[0].busy_us, 500.0);
  EXPECT_EQ(r.threads[0].idle_us, 250.0);
  EXPECT_EQ(r.threads[0].tasks, 7);
  EXPECT_EQ(r.threads[0].steals, 2);

  // top_rounds honors the cap deterministically.
  const CriticalPathReport capped = analyze_critical_path(t, 1);
  ASSERT_EQ(capped.top_rounds.size(), 1u);
  EXPECT_EQ(capped.top_rounds[0].round, 0);
}

TEST(TraceAnalysis, FormatCriticalPathGolden) {
  TraceData t;
  std::string err;
  ASSERT_TRUE(parse_trace_json(kTrace, &t, &err)) << err;
  const std::string text = format_critical_path(analyze_critical_path(t), "TRACE_x.json");
  EXPECT_NE(text.find("== critical path: TRACE_x.json =="), std::string::npos) << text;
  EXPECT_NE(text.find("engine.run wall"), std::string::npos);
  EXPECT_NE(text.find("slowest rounds"), std::string::npos);
  EXPECT_NE(text.find("round 0"), std::string::npos);
  EXPECT_NE(text.find("phase.beta"), std::string::npos);
  EXPECT_NE(text.find("per-thread slack"), std::string::npos);
  EXPECT_NE(text.find("steals 2"), std::string::npos);

  // Without pool counters the slack section states why, instead of
  // printing an empty table.
  const std::string bare =
      format_critical_path(analyze_critical_path(TraceData{}), "empty");
  EXPECT_NE(bare.find("no pool counters"), std::string::npos) << bare;
}

TEST(TraceAnalysis, DiffPhasesRanksByDeltaAndTracksResidual) {
  const std::vector<std::pair<std::string, double>> current = {{"a", 10.0}, {"b", 5.0}};
  const std::vector<std::pair<std::string, double>> baseline = {
      {"a", 4.0}, {"b", 5.0}, {"c", 1.0}};
  const PhaseDiff d = diff_phases(current, baseline, 20.0, 12.0, 1.0);

  EXPECT_TRUE(d.has_phases);
  EXPECT_EQ(d.current_wall_ms, 20.0);
  EXPECT_EQ(d.baseline_wall_ms, 12.0);
  EXPECT_EQ(d.delta_ms, 8.0);
  ASSERT_EQ(d.lines.size(), 3u);
  // Ranked by delta desc: a (+6), b (0), c (-1).
  EXPECT_EQ(d.lines[0].phase, "a");
  EXPECT_EQ(d.lines[0].delta_ms, 6.0);
  EXPECT_EQ(d.lines[0].share, 0.75);
  EXPECT_EQ(d.lines[1].phase, "b");
  EXPECT_EQ(d.lines[1].delta_ms, 0.0);
  EXPECT_EQ(d.lines[2].phase, "c");
  EXPECT_EQ(d.lines[2].delta_ms, -1.0);
  // Wall delta 8, phases explain 6 + 0 - 1 = 5 -> residual 3.
  EXPECT_EQ(d.unattributed_ms, 3.0);
}

TEST(TraceAnalysis, DiffPhasesAppliesCalibrationToBaseline) {
  const std::vector<std::pair<std::string, double>> current = {{"a", 10.0}};
  const std::vector<std::pair<std::string, double>> baseline = {{"a", 4.0}};
  const PhaseDiff d = diff_phases(current, baseline, 10.0, 4.0, 2.0);
  EXPECT_EQ(d.baseline_wall_ms, 8.0);
  EXPECT_EQ(d.delta_ms, 2.0);
  ASSERT_EQ(d.lines.size(), 1u);
  EXPECT_EQ(d.lines[0].baseline_ms, 8.0);
  EXPECT_EQ(d.lines[0].delta_ms, 2.0);

  // Nonsensical calibration falls back to 1.0 instead of flipping signs.
  const PhaseDiff safe = diff_phases(current, baseline, 10.0, 4.0, -3.0);
  EXPECT_EQ(safe.calibration, 1.0);
}

TEST(TraceAnalysis, FormatPhaseDiffGolden) {
  const std::vector<std::pair<std::string, double>> current = {{"slow.phase", 10.0},
                                                              {"ok.phase", 5.0}};
  const std::vector<std::pair<std::string, double>> baseline = {{"slow.phase", 4.0},
                                                               {"ok.phase", 5.0}};
  const PhaseDiff d = diff_phases(current, baseline, 20.0, 12.0, 1.0);
  const std::string text = format_phase_diff(d, "  ");
  EXPECT_NE(text.find("phase attribution: 20.00 ms current vs 12.00 ms"), std::string::npos)
      << text;
  EXPECT_NE(text.find("#1  phase slow.phase"), std::string::npos) << text;
  EXPECT_NE(text.find("+6.00 ms"), std::string::npos);
  EXPECT_NE(text.find("( 75% of delta)"), std::string::npos);
  EXPECT_NE(text.find("unattributed"), std::string::npos);
  // Every line carries the indent.
  EXPECT_EQ(text.rfind("  phase attribution", 0), 0u);

  // The cap prints an overflow line instead of silently truncating.
  const std::string capped = format_phase_diff(d, "", 1);
  EXPECT_NE(capped.find("... 1 more phase(s)"), std::string::npos) << capped;

  // No phase data on either side: say so, don't print an empty table.
  const PhaseDiff empty = diff_phases({}, {}, 10.0, 5.0, 1.0);
  const std::string none = format_phase_diff(empty, "");
  EXPECT_NE(none.find("no phase breakdown"), std::string::npos) << none;
}

TEST(TraceAnalysis, InjectedSlowdownNamesTheGuiltyPhaseFirst) {
  // The acceptance shape for the attribution tooling: take a plausible
  // breakdown, slow ONE phase by 10x, and the formatted diff's #1 line
  // must name that phase with the dominant share.
  std::vector<std::pair<std::string, double>> base = {
      {"corollary12.class", 8.0}, {"corollary12.decompose", 3.0}, {"corollary12.prune", 2.0}};
  std::vector<std::pair<std::string, double>> cur = base;
  double wall_base = 15.0;
  double wall_cur = wall_base;
  for (auto& [name, ms] : cur) {
    if (name == "corollary12.prune") {
      wall_cur += 9.0 * ms;
      ms *= 10.0;
    }
  }
  const PhaseDiff d = diff_phases(cur, base, wall_cur, wall_base, 1.0);
  const std::string text = format_phase_diff(d, "");
  const std::size_t first = text.find("#1 ");
  ASSERT_NE(first, std::string::npos) << text;
  const std::size_t eol = text.find('\n', first);
  const std::string line = text.substr(first, eol - first);
  EXPECT_NE(line.find("corollary12.prune"), std::string::npos) << text;
  EXPECT_NE(line.find("(100% of delta)"), std::string::npos) << text;
}

}  // namespace
}  // namespace dcolor::obs
