#include "src/obs/trace_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/benchkit/json.h"
#include "src/util/format.h"

namespace dcolor::obs {

namespace {

using benchkit::JsonValue;

}  // namespace

double TraceEvent::arg_or(const std::string& key, double fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return fallback;
}

bool parse_trace_json(const std::string& json_text, TraceData* out, std::string* err) {
  JsonValue v;
  if (!benchkit::json_parse(json_text, &v, err)) return false;
  if (v.kind != JsonValue::Kind::kObject) {
    if (err) *err = "trace is not a JSON object";
    return false;
  }
  const JsonValue* events = v.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    if (err) *err = "trace has no traceEvents array";
    return false;
  }
  *out = TraceData{};
  out->dropped_events = static_cast<std::int64_t>(v.number_or("dcolorDroppedEvents", 0));
  for (const JsonValue& ev : events->array) {
    if (ev.kind != JsonValue::Kind::kObject) continue;
    const std::string ph = ev.string_or("ph", "");
    if (ph != "X" && ph != "C") continue;  // metadata etc.
    TraceEvent e;
    e.ph = ph[0];
    e.cat = ev.string_or("cat", "");
    e.name = ev.string_or("name", "");
    e.tid = static_cast<int>(ev.number_or("tid", 0));
    e.ts_us = ev.number_or("ts", 0);
    if (e.ph == 'X') {
      e.dur_us = ev.number_or("dur", 0);
      if (const JsonValue* args = ev.find("args");
          args != nullptr && args->kind == JsonValue::Kind::kObject) {
        for (const auto& [key, val] : args->object) {
          if (val.kind == JsonValue::Kind::kNumber) e.args.emplace_back(key, val.number);
        }
      }
    } else {
      if (const JsonValue* args = ev.find("args"); args != nullptr) {
        e.dur_us = args->number_or("value", 0);
      }
    }
    out->events.push_back(std::move(e));
  }
  return true;
}

bool load_trace_file(const std::string& path, TraceData* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trace_json(text.str(), out, err);
}

CriticalPathReport analyze_critical_path(const TraceData& t, int top_rounds) {
  CriticalPathReport r;
  std::vector<RoundLine> rounds;
  std::map<std::string, PhaseLine> phases;
  std::map<int, ThreadLine> threads;

  for (const TraceEvent& e : t.events) {
    if (e.ph == 'X') {
      if (e.name == "engine.run") {
        ++r.runs;
        r.wall_us += e.dur_us;
      } else if (e.name == "engine.round") {
        RoundLine line;
        line.round = static_cast<std::int64_t>(e.arg_or("round", 0));
        line.dur_us = e.dur_us;
        line.roster = static_cast<std::int64_t>(e.arg_or("roster", 0));
        line.messages = static_cast<std::int64_t>(e.arg_or("messages", 0));
        r.round_total_us += e.dur_us;
        rounds.push_back(line);
      } else if (e.cat == "phase") {
        PhaseLine& p = phases[e.name];
        p.name = e.name;
        ++p.count;
        p.total_us += e.dur_us;
        p.max_us = std::max(p.max_us, e.dur_us);
      }
    } else if (e.cat == "pool") {
      ThreadLine& th = threads[e.tid];
      th.tid = e.tid;
      if (e.name == "pool.worker_busy_ns") {
        th.busy_us += e.dur_us / 1000.0;
      } else if (e.name == "pool.worker_idle_ns") {
        th.idle_us += e.dur_us / 1000.0;
      } else if (e.name == "pool.worker_tasks") {
        th.tasks += static_cast<std::int64_t>(e.dur_us);
      } else if (e.name == "pool.worker_steals") {
        th.steals += static_cast<std::int64_t>(e.dur_us);
      }
    }
  }

  r.rounds = static_cast<std::int64_t>(rounds.size());
  // Slowest rounds first; ties broken by round number so the report is
  // deterministic for equal durations.
  std::stable_sort(rounds.begin(), rounds.end(), [](const RoundLine& a, const RoundLine& b) {
    if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
    return a.round < b.round;
  });
  if (top_rounds >= 0 && rounds.size() > static_cast<std::size_t>(top_rounds)) {
    rounds.resize(static_cast<std::size_t>(top_rounds));
  }
  r.top_rounds = std::move(rounds);

  for (auto& [name, p] : phases) r.phases.push_back(p);
  std::stable_sort(r.phases.begin(), r.phases.end(), [](const PhaseLine& a, const PhaseLine& b) {
    if (a.total_us != b.total_us) return a.total_us > b.total_us;
    return a.name < b.name;
  });
  for (auto& [tid, th] : threads) r.threads.push_back(th);
  return r;
}

std::string format_critical_path(const CriticalPathReport& r, const std::string& label) {
  std::string out;
  appendf(out, "== critical path: %s ==\n", label.c_str());
  appendf(out, "engine.run wall   %10.3f ms over %lld run(s)\n", r.wall_us / 1000.0,
          static_cast<long long>(r.runs));
  appendf(out, "engine rounds     %10.3f ms over %lld round span(s)\n",
          r.round_total_us / 1000.0, static_cast<long long>(r.rounds));
  if (!r.top_rounds.empty()) {
    out += "slowest rounds (what bounds the wall clock):\n";
    for (std::size_t i = 0; i < r.top_rounds.size(); ++i) {
      const RoundLine& line = r.top_rounds[i];
      appendf(out, "  #%-2zu round %-8lld %10.3f ms  roster=%-10lld messages=%lld\n", i + 1,
              static_cast<long long>(line.round), line.dur_us / 1000.0,
              static_cast<long long>(line.roster), static_cast<long long>(line.messages));
    }
  }
  if (!r.phases.empty()) {
    out += "phase totals:\n";
    for (const PhaseLine& p : r.phases) {
      appendf(out, "  %-32s %6lld span(s) %10.3f ms total %10.3f ms max\n", p.name.c_str(),
              static_cast<long long>(p.count), p.total_us / 1000.0, p.max_us / 1000.0);
    }
  }
  if (!r.threads.empty()) {
    out += "per-thread slack (pool.worker_* counters):\n";
    for (const ThreadLine& th : r.threads) {
      appendf(out, "  t%-3d busy %10.3f ms  idle %10.3f ms  tasks %-8lld steals %lld\n", th.tid,
              th.busy_us / 1000.0, th.idle_us / 1000.0, static_cast<long long>(th.tasks),
              static_cast<long long>(th.steals));
    }
  } else {
    out += "per-thread slack: no pool counters (serial fast path or single thread)\n";
  }
  return out;
}

PhaseDiff diff_phases(const std::vector<std::pair<std::string, double>>& current,
                      const std::vector<std::pair<std::string, double>>& baseline,
                      double current_wall_ms, double baseline_wall_ms, double calibration) {
  PhaseDiff d;
  if (calibration <= 0) calibration = 1.0;
  d.calibration = calibration;
  d.current_wall_ms = current_wall_ms;
  d.baseline_wall_ms = baseline_wall_ms * calibration;
  d.delta_ms = d.current_wall_ms - d.baseline_wall_ms;
  d.has_phases = !current.empty() && !baseline.empty();

  std::map<std::string, PhaseDelta> merged;
  for (const auto& [name, ms] : current) merged[name].current_ms += ms;
  for (const auto& [name, ms] : baseline) merged[name].baseline_ms += ms * calibration;
  double attributed = 0.0;
  for (auto& [name, line] : merged) {
    line.phase = name;
    line.delta_ms = line.current_ms - line.baseline_ms;
    if (d.delta_ms > 0) line.share = line.delta_ms / d.delta_ms;
    attributed += line.delta_ms;
    d.lines.push_back(line);
  }
  d.unattributed_ms = d.delta_ms - attributed;
  std::stable_sort(d.lines.begin(), d.lines.end(), [](const PhaseDelta& a, const PhaseDelta& b) {
    if (a.delta_ms != b.delta_ms) return a.delta_ms > b.delta_ms;
    return a.phase < b.phase;
  });
  return d;
}

std::string format_phase_diff(const PhaseDiff& d, const std::string& indent, int top) {
  std::string out;
  appendf(out, "%sphase attribution: %.2f ms current vs %.2f ms calibrated baseline "
               "(delta %+.2f ms, calibration %.3f)\n",
          indent.c_str(), d.current_wall_ms, d.baseline_wall_ms, d.delta_ms, d.calibration);
  if (!d.has_phases) {
    appendf(out, "%s  (no phase breakdown on both sides — rerun with profiling, or give "
                 "the scenario phase spans)\n",
            indent.c_str());
    return out;
  }
  int shown = 0;
  for (const PhaseDelta& line : d.lines) {
    if (top >= 0 && shown >= top) break;
    ++shown;
    appendf(out, "%s  #%-2d phase %-32s %+9.2f ms", indent.c_str(), shown, line.phase.c_str(),
            line.delta_ms);
    if (d.delta_ms > 0) {
      appendf(out, "  (%3.0f%% of delta)", line.share * 100.0);
    }
    appendf(out, "  [%.2f -> %.2f ms]\n", line.baseline_ms, line.current_ms);
  }
  if (static_cast<int>(d.lines.size()) > shown) {
    appendf(out, "%s  ... %d more phase(s)\n", indent.c_str(),
            static_cast<int>(d.lines.size()) - shown);
  }
  appendf(out, "%s  (unattributed: phase-external / measurement noise) %+9.2f ms\n",
          indent.c_str(), d.unattributed_ms);
  return out;
}

}  // namespace dcolor::obs
