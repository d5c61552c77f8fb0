// Post-hoc analysis over obs artifacts: Chrome trace exports
// (TRACE_*.json) and the phase breakdowns benchkit records carry.
//
// Two consumers share this translation unit: the `dcolor-trace` CLI
// (critical-path reports, two-run phase diffs) and the benchkit baseline
// gate, which calls diff_phases/format_phase_diff so a wall-clock
// regression prints a ranked "phase X contributed Y ms of the Z ms
// delta" attribution table instead of a bare ratio. Everything here is
// deterministic text over parsed numbers — no clocks, no recording.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dcolor::obs {

// --- Trace loading ----------------------------------------------------

// One parsed traceEvents entry ('X' complete span or 'C' counter).
struct TraceEvent {
  std::string cat;
  std::string name;
  char ph = 'X';
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  // 'C': the counter value
  std::vector<std::pair<std::string, double>> args;

  double arg_or(const std::string& key, double fallback) const;
};

struct TraceData {
  std::vector<TraceEvent> events;  // file order; metadata events skipped
  std::int64_t dropped_events = 0;
};

// Parses one chrome_trace_json() export. Returns false with a
// diagnostic on malformed input.
bool parse_trace_json(const std::string& json_text, TraceData* out, std::string* err);
bool load_trace_file(const std::string& path, TraceData* out, std::string* err);

// --- Critical path ----------------------------------------------------

struct RoundLine {
  std::int64_t round = 0;
  double dur_us = 0.0;
  std::int64_t roster = 0;
  std::int64_t messages = 0;
};

struct PhaseLine {
  std::string name;
  std::int64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

// Per-thread accounting from the pool.worker_* counters: busy/idle are
// time inside/outside task bodies during pool dispatches, steals are
// tasks taken outside the worker's static-partition range. The
// coordinator thread (tid of the engine.run span) typically has no pool
// counters — serial fast-path phases never wake the pool.
struct ThreadLine {
  int tid = 0;
  double busy_us = 0.0;
  double idle_us = 0.0;
  std::int64_t tasks = 0;
  std::int64_t steals = 0;
};

struct CriticalPathReport {
  double wall_us = 0.0;        // sum of engine.run span durations
  std::int64_t runs = 0;       // engine.run spans seen
  std::int64_t rounds = 0;     // engine.round spans seen
  double round_total_us = 0.0;
  std::vector<RoundLine> top_rounds;  // slowest first
  std::vector<PhaseLine> phases;      // cat=="phase", by total desc
  std::vector<ThreadLine> threads;    // by tid
};

CriticalPathReport analyze_critical_path(const TraceData& t, int top_rounds = 10);
std::string format_critical_path(const CriticalPathReport& r, const std::string& label);

// --- Phase diff / regression attribution ------------------------------

struct PhaseDelta {
  std::string phase;
  double current_ms = 0.0;
  double baseline_ms = 0.0;  // calibrated (baseline * calibration)
  double delta_ms = 0.0;     // current - calibrated baseline
  double share = 0.0;        // delta / wall delta, when the wall delta > 0
};

struct PhaseDiff {
  double current_wall_ms = 0.0;
  double baseline_wall_ms = 0.0;  // calibrated
  double delta_ms = 0.0;          // wall delta (current - calibrated baseline)
  double calibration = 1.0;
  double unattributed_ms = 0.0;  // wall delta not explained by any phase
  std::vector<PhaseDelta> lines;  // ranked by delta desc, then name
  bool has_phases = false;        // both sides carried phase data
};

// Phase-by-phase diff of two (phase -> ms) breakdowns (from
// Record::phase_wall_ms or a trace's phase totals). Baseline values are
// scaled by `calibration` — the same machine-speed factor the baseline
// gate applies to wall clock — before differencing.
PhaseDiff diff_phases(const std::vector<std::pair<std::string, double>>& current,
                      const std::vector<std::pair<std::string, double>>& baseline,
                      double current_wall_ms, double baseline_wall_ms, double calibration);

// The ranked attribution table, one line per phase ("#1 phase X
// contributed +Y ms of the +Z ms delta"), every line prefixed with
// `indent`. At most `top` phase lines, then the unattributed residual.
std::string format_phase_diff(const PhaseDiff& d, const std::string& indent, int top = 5);

}  // namespace dcolor::obs
