#include "src/benchkit/report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/benchkit/json.h"
#include "src/benchkit/version.h"
#include "src/obs/obs.h"
#include "src/obs/trace_analysis.h"
#include "src/util/format.h"

namespace dcolor::benchkit {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char ch : name) {
    out += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
  }
  return out;
}

// A record histogram's numeric fields in schema order, the one list
// record_json writes and parse_record reads.
const std::pair<const char*, std::int64_t RecordHistogram::*> kHistogramFields[] = {
    {"count", &RecordHistogram::count}, {"total", &RecordHistogram::total},
    {"min", &RecordHistogram::min},     {"max", &RecordHistogram::max},
    {"p50", &RecordHistogram::p50},     {"p90", &RecordHistogram::p90},
    {"p99", &RecordHistogram::p99},
};

// " field old -> new (+x.x%)" when a charged count drifted, the change
// relative to the baseline's value (left out when that is 0).
std::string count_drift(const char* field, std::int64_t base, std::int64_t cur) {
  if (cur == base) return "";
  char buf[160];
  const int len = std::snprintf(buf, sizeof(buf), " %s %lld -> %lld", field,
                                static_cast<long long>(base), static_cast<long long>(cur));
  if (base != 0) {
    std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len), " (%+.1f%%)",
                  100.0 * static_cast<double>(cur - base) / static_cast<double>(base));
  }
  return buf;
}

// The metric/* histograms whose count, total, min or max differ between
// the two records, or that only one of them has, as " key" entries.
std::string metric_histogram_drift(const Record& cur, const Record& base) {
  auto metric_hists = [](const Record& r) {
    std::map<std::string, const RecordHistogram*> m;
    for (const RecordHistogram& h : r.histograms) {
      if (h.key.rfind("metric/", 0) == 0) m[h.key] = &h;
    }
    return m;
  };
  const auto c = metric_hists(cur);
  const auto b = metric_hists(base);
  std::string drift;
  for (const auto& [key, h] : c) {
    const auto it = b.find(key);
    if (it == b.end() || h->count != it->second->count || h->total != it->second->total ||
        h->min != it->second->min || h->max != it->second->max) {
      drift += " " + key;
    }
  }
  for (const auto& [key, h] : b) {
    if (c.count(key) == 0) drift += " " + key;
  }
  return drift;
}

// nodes·rounds/s with an M/k suffix; "-" when the record has none.
std::string throughput(double v) {
  std::string out = v <= 0 ? "-" : "";
  if (v >= 1e6) {
    appendf(out, "%.1fM", v / 1e6);
  } else if (v >= 1e3) {
    appendf(out, "%.1fk", v / 1e3);
  } else if (v > 0) {
    appendf(out, "%.0f", v);
  }
  return out;
}

// One scenario instance's name in file names and reports: the scenario
// with non-alnum -> '_', plus "_t<threads>" for scalable scenarios.
std::string instance_label(const Record& r) {
  return sanitize(r.scenario) + (r.scalable ? "_t" + std::to_string(r.threads) : "");
}

// (name, value) pairs by descending value; ties keep their input order.
template <typename T>
void sort_descending(std::vector<std::pair<std::string, T>>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
}

void summary_table(const std::vector<Record>& records, const BaselineReport* baseline,
                   std::string& out) {
  out += "| instance | transport | n | threads | wall ms | min..max | rounds | nodes·rounds/s "
         "| rss KB | ok |";
  out += baseline ? " ratio | limit ms | verdict |\n" : "\n";
  out += baseline ? "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n"
                  : "|---|---|---|---|---|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    appendf(out, "| %s | %s | %lld | %d | %.3f | %.3f..%.3f | %lld | %s | %lld | %s |",
            instance_label(r).c_str(), r.transport.c_str(), static_cast<long long>(r.n),
            r.threads, r.wall_ms, r.wall_ms_min, r.wall_ms_max,
            static_cast<long long>(r.rounds), throughput(r.nodes_rounds_per_sec).c_str(),
            static_cast<long long>(r.rss_peak_kb),
            r.verified && r.checksum_stable ? "yes" : "**NO**");
    if (baseline) {
      const BaselineLine& line = baseline->lines[i];
      if (line.missing) {
        appendf(out, " - | - | %s |", verdict(line));
      } else {
        appendf(out, " %.2f | %.3f | %s |", line.ratio, line.limit_ms, verdict(line));
      }
    }
    out += "\n";
  }
}

void phase_tables(const std::vector<Record>& records, std::string& out) {
  std::map<std::string, double> totals;
  double grand = 0;
  std::string rows;
  for (const Record& r : records) {
    std::vector<std::pair<std::string, double>> phases = r.phase_wall_ms;
    if (phases.empty()) continue;
    sort_descending(&phases);
    double sum = 0;
    appendf(rows, "| %s |", instance_label(r).c_str());
    for (std::size_t p = 0; p < phases.size(); ++p) {
      appendf(rows, "%s %s %.2f", p ? "," : "", phases[p].first.c_str(), phases[p].second);
      totals[phases[p].first] += phases[p].second;
      sum += phases[p].second;
    }
    grand += sum;
    const double wall = phase_reference_wall_ms(r);
    appendf(rows, " | %.2f | %.2f |\n", wall, wall > 0 ? sum / wall : 0.0);
  }
  if (totals.empty()) {
    out += "_No per-phase data (tracing-free runs)._\n";
    return;
  }
  out += "| instance | phase breakdown (ms) | profiled wall ms | phases / wall |\n"
         "|---|---|---|---|\n" +
         rows;
  out += "\nAggregate across all records:\n\n| phase | total ms | share |\n|---|---|---|\n";
  std::vector<std::pair<std::string, double>> sorted(totals.begin(), totals.end());
  sort_descending(&sorted);
  for (const auto& [name, ms] : sorted) {
    appendf(out, "| %s | %.2f | %.1f%% |\n", name.c_str(), ms,
            grand > 0 ? ms / grand * 100.0 : 0.0);
  }
}

// Worst per-record percentile estimate per phase/* histogram: estimates
// do not merge across records, and a regression hunt wants the worst.
void percentile_table(const std::vector<Record>& records, std::string& out) {
  struct Row {
    std::int64_t count = 0, total = 0;
    std::int64_t worst[4] = {};  // p50, p90, p99, max
  };
  std::map<std::string, Row> rows;
  std::string dropped;
  for (const Record& r : records) {
    for (const RecordHistogram& h : r.histograms) {
      if (h.key.rfind("phase/", 0) != 0) continue;
      Row& row = rows[h.key.substr(6)];
      row.count += h.count;
      row.total = obs::saturating_add(row.total, h.total);
      const std::int64_t q[4] = {h.p50, h.p90, h.p99, h.max};
      for (int k = 0; k < 4; ++k) row.worst[k] = std::max(row.worst[k], q[k]);
    }
    if (r.dropped_events > 0) {
      appendf(dropped, "%s%s (%lld)", dropped.empty() ? "" : ", ", instance_label(r).c_str(),
              static_cast<long long>(r.dropped_events));
    }
  }
  if (rows.empty()) {
    out += "_No phase histograms (tracing-free runs)._\n";
    return;
  }
  std::vector<std::pair<std::string, std::int64_t>> order;
  for (const auto& [phase, row] : rows) order.emplace_back(phase, row.total);
  sort_descending(&order);
  out += "| phase | spans | p50 | p90 | p99 | max |\n|---|---|---|---|---|---|\n";
  for (const auto& [phase, total] : order) {
    const Row& row = rows[phase];
    appendf(out, "| %s | %lld | %.3f | %.3f | %.3f | %.3f |\n", phase.c_str(),
            static_cast<long long>(row.count), row.worst[0] / 1e6, row.worst[1] / 1e6,
            row.worst[2] / 1e6, row.worst[3] / 1e6);
  }
  if (!dropped.empty()) {
    out += "\nDropped trace events (timelines truncated; histograms complete): " + dropped +
           ".\n";
  }
}

}  // namespace

double phase_reference_wall_ms(const Record& r) {
  return r.profiled_wall_ms > 0 ? r.profiled_wall_ms : r.wall_ms;
}

Record to_record(const Measurement& m) {
  Record r;
  r.scenario = m.name;
  r.family = m.family;
  r.algorithm = m.algorithm;
  r.transport = m.transport;
  r.n = m.outcome.n;
  r.m = m.outcome.m;
  r.seed = m.outcome.seed;
  r.threads = m.threads;
  r.scalable = m.scalable;
  r.quick = m.quick;
  r.warmup = m.warmup;
  r.reps = m.reps;
  r.wall_ms = m.wall_ms_median;
  r.wall_ms_min = m.wall_ms_min;
  r.wall_ms_max = m.wall_ms_max;
  r.rounds = m.outcome.metrics.rounds;
  r.messages = m.outcome.metrics.messages;
  r.total_bits = m.outcome.metrics.total_bits;
  r.max_message_bits = m.outcome.metrics.max_message_bits;
  r.checksum = hex64(m.outcome.checksum);
  r.verified = m.verified;
  r.checksum_stable = m.checksum_stable;
  r.rss_peak_kb = m.rss_peak_kb;
  if (r.wall_ms > 0 && r.rounds > 0) {
    r.nodes_rounds_per_sec =
        static_cast<double>(r.n) * static_cast<double>(r.rounds) * 1000.0 / r.wall_ms;
  }
  r.profiled_wall_ms = m.profiled_wall_ms;
  r.phase_wall_ms = m.phase_wall_ms;
  r.dropped_events = m.dropped_events;
  for (const obs::HistogramSnapshot& h : m.histograms) {
    RecordHistogram rh;
    rh.key = h.cat + "/" + h.name;
    rh.count = h.count;
    rh.total = h.total;
    rh.min = h.min;
    rh.max = h.max;
    rh.p50 = obs::histogram_quantile(h, 0.50);
    rh.p90 = obs::histogram_quantile(h, 0.90);
    rh.p99 = obs::histogram_quantile(h, 0.99);
    for (int b = 0; b < obs::kNumHistogramBuckets; ++b) {
      if (h.buckets[static_cast<std::size_t>(b)] != 0) {
        rh.buckets.emplace_back(b, h.buckets[static_cast<std::size_t>(b)]);
      }
    }
    r.histograms.push_back(std::move(rh));
  }
  r.git = git_describe();
  return r;
}

std::string record_filename(const Record& r) { return "BENCH_" + instance_label(r) + ".json"; }

std::string trace_filename(const Record& r) { return "TRACE_" + instance_label(r) + ".json"; }

std::string record_json(const Record& r) {
  JsonObjectWriter w;
  w.field("schema", kRecordSchema)
      .field("scenario", r.scenario)
      .field("family", r.family)
      .field("algorithm", r.algorithm)
      .field("transport", r.transport)
      .field("n", r.n)
      .field("m", r.m)
      // Seeds in practice fit a double exactly; parse-back tolerance is
      // all the comparator needs.
      .field("seed", static_cast<std::int64_t>(r.seed))
      .field("threads", static_cast<std::int64_t>(r.threads))
      .field("scalable", r.scalable)
      .field("quick", r.quick)
      .field("warmup", static_cast<std::int64_t>(r.warmup))
      .field("reps", static_cast<std::int64_t>(r.reps))
      .field("wall_ms", r.wall_ms)
      .field("wall_ms_min", r.wall_ms_min)
      .field("wall_ms_max", r.wall_ms_max)
      .field("rounds", r.rounds)
      .field("messages", r.messages)
      .field("total_bits", r.total_bits)
      .field("max_message_bits", r.max_message_bits)
      .field("checksum", r.checksum)
      .field("verified", r.verified)
      .field("checksum_stable", r.checksum_stable)
      .field("rss_peak_kb", r.rss_peak_kb)
      .field("nodes_rounds_per_sec", r.nodes_rounds_per_sec)
      .field("profiled_wall_ms", r.profiled_wall_ms);
  std::string phases = "{";
  for (std::size_t i = 0; i < r.phase_wall_ms.size(); ++i) {
    if (i) phases += ',';
    phases += json_quote(r.phase_wall_ms[i].first) + ":" + json_number(r.phase_wall_ms[i].second);
  }
  phases += "}";
  w.field_raw("phase_wall_ms", phases).field("dropped_events", r.dropped_events);
  std::string hists = "{";
  for (std::size_t i = 0; i < r.histograms.size(); ++i) {
    const RecordHistogram& h = r.histograms[i];
    if (i) hists += ',';
    hists += json_quote(h.key) + ":{";
    for (const auto& [key, member] : kHistogramFields) {
      hists += json_quote(key) + ":" + json_number(h.*member) + ",";
    }
    hists += "\"buckets\":{";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) hists += ',';
      hists += json_quote(std::to_string(h.buckets[b].first)) + ":" +
               json_number(h.buckets[b].second);
    }
    hists += "}}";
  }
  hists += "}";
  w.field_raw("histograms", hists).field("git", r.git);
  return w.close();
}

bool parse_record(const std::string& json_text, Record* out, std::string* err) {
  JsonValue v;
  if (!json_parse(json_text, &v, err)) return false;
  if (v.kind != JsonValue::Kind::kObject) {
    if (err) *err = "record is not a JSON object";
    return false;
  }
  const std::string schema = v.string_or("schema", "");
  if (schema != kRecordSchema) {
    if (err) *err = "unexpected schema '" + schema + "'";
    return false;
  }
  *out = Record{};
  out->scenario = v.string_or("scenario", "");
  out->family = v.string_or("family", "");
  out->algorithm = v.string_or("algorithm", "");
  out->transport = v.string_or("transport", "");
  out->n = static_cast<std::int64_t>(v.number_or("n", 0));
  out->m = static_cast<std::int64_t>(v.number_or("m", 0));
  out->seed = static_cast<std::uint64_t>(v.number_or("seed", 0));
  out->threads = static_cast<int>(v.number_or("threads", 1));
  out->scalable = v.bool_or("scalable", false);
  out->quick = v.bool_or("quick", false);
  out->warmup = static_cast<int>(v.number_or("warmup", 0));
  out->reps = static_cast<int>(v.number_or("reps", 0));
  out->wall_ms = v.number_or("wall_ms", 0);
  out->wall_ms_min = v.number_or("wall_ms_min", 0);
  out->wall_ms_max = v.number_or("wall_ms_max", 0);
  out->rounds = static_cast<std::int64_t>(v.number_or("rounds", 0));
  out->messages = static_cast<std::int64_t>(v.number_or("messages", 0));
  out->total_bits = static_cast<std::int64_t>(v.number_or("total_bits", 0));
  out->max_message_bits = static_cast<std::int64_t>(v.number_or("max_message_bits", 0));
  out->checksum = v.string_or("checksum", "");
  out->verified = v.bool_or("verified", false);
  out->checksum_stable = v.bool_or("checksum_stable", false);
  out->rss_peak_kb = static_cast<std::int64_t>(v.number_or("rss_peak_kb", 0));
  out->nodes_rounds_per_sec = v.number_or("nodes_rounds_per_sec", 0);
  out->profiled_wall_ms = v.number_or("profiled_wall_ms", 0);
  if (const JsonValue* phases = v.find("phase_wall_ms");
      phases != nullptr && phases->kind == JsonValue::Kind::kObject) {
    for (const auto& [name, val] : phases->object) {
      if (val.kind == JsonValue::Kind::kNumber) {
        out->phase_wall_ms.emplace_back(name, val.number);
      }
    }
  }
  out->dropped_events = static_cast<std::int64_t>(v.number_or("dropped_events", 0));
  if (const JsonValue* hists = v.find("histograms");
      hists != nullptr && hists->kind == JsonValue::Kind::kObject) {
    for (const auto& [key, hv] : hists->object) {
      if (hv.kind != JsonValue::Kind::kObject) continue;
      RecordHistogram rh;
      rh.key = key;
      for (const auto& [key, member] : kHistogramFields) {
        rh.*member = static_cast<std::int64_t>(hv.number_or(key, 0));
      }
      if (const JsonValue* buckets = hv.find("buckets");
          buckets != nullptr && buckets->kind == JsonValue::Kind::kObject) {
        for (const auto& [bkey, bval] : buckets->object) {
          if (bval.kind != JsonValue::Kind::kNumber) continue;
          rh.buckets.emplace_back(std::atoi(bkey.c_str()),
                                  static_cast<std::int64_t>(bval.number));
        }
      }
      out->histograms.push_back(std::move(rh));
    }
  }
  out->git = v.string_or("git", "");
  if (out->scenario.empty()) {
    if (err) *err = "record has no scenario name";
    return false;
  }
  return true;
}

bool read_record_file(const std::string& path, Record* out, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_record(text.str(), out, err);
}

bool write_record_file(const std::string& dir, const Record& r, std::string* err) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (err) *err = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  const std::string path = dir + "/" + record_filename(r);
  std::ofstream out(path);
  if (!out) {
    if (err) *err = "cannot write " + path;
    return false;
  }
  out << record_json(r) << "\n";
  out.close();
  if (!out) {
    if (err) *err = "short write to " + path;
    return false;
  }
  return true;
}

bool read_record_dir(const std::string& dir, RecordDir* out, std::string* err) {
  *out = RecordDir{};
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() >= 11 && name.rfind("BENCH_", 0) == 0 &&
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  if (ec) {
    if (err) *err = "cannot read directory " + dir + ": " + ec.message();
    return false;
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    Record r;
    std::string why;
    if (read_record_file(dir + "/" + name, &r, &why)) {
      out->records.push_back(std::move(r));
    } else {
      out->warnings.push_back(name + ": " + why);
    }
  }
  return true;
}

BaselinePairing pair_with_baseline(const std::vector<Record>& current,
                                   const std::string& baseline_dir, bool calibrate) {
  BaselinePairing pairing;
  pairing.matches.resize(current.size());
  std::vector<double> ratios;
  for (std::size_t i = 0; i < current.size(); ++i) {
    BaselineMatch& m = pairing.matches[i];
    std::string err;
    if (!read_record_file(baseline_dir + "/" + record_filename(current[i]), &m.baseline, &err) ||
        m.baseline.wall_ms <= 0) {
      ++pairing.unmatched;
      continue;
    }
    // Same-instance guard: a full-size run against quick baselines (or a
    // changed seed) would compare nonsense ratios; such records are
    // incomparable, not regressed.
    if (m.baseline.n != current[i].n || m.baseline.quick != current[i].quick ||
        m.baseline.seed != current[i].seed) {
      m.incomparable = true;
      ++pairing.unmatched;
      continue;
    }
    m.matched = true;
    ratios.push_back(current[i].wall_ms / m.baseline.wall_ms);
  }
  pairing.calibration = (calibrate && !ratios.empty()) ? median(ratios) : 1.0;
  if (pairing.calibration <= 0) pairing.calibration = 1.0;
  return pairing;
}

BaselineReport compare_with_baseline(const std::vector<Record>& current,
                                     const std::string& baseline_dir, double threshold_frac,
                                     double abs_slack_ms, bool calibrate) {
  const BaselinePairing pairing = pair_with_baseline(current, baseline_dir, calibrate);
  BaselineReport report;
  report.calibration = pairing.calibration;
  report.missing = pairing.unmatched;
  for (std::size_t i = 0; i < current.size(); ++i) {
    BaselineLine& line = report.lines.emplace_back();
    line.file = record_filename(current[i]);
    line.current_ms = current[i].wall_ms;
    const BaselineMatch& match = pairing.matches[i];
    if (!match.matched) {
      line.missing = true;
      if (match.incomparable) line.drift = "incomparable baseline (n/quick/seed differ)";
      continue;
    }
    const Record& base = match.baseline;
    line.baseline_ms = base.wall_ms;
    line.ratio = line.current_ms / line.baseline_ms;
    line.limit_ms = base.wall_ms * report.calibration * (1.0 + threshold_frac) + abs_slack_ms;
    if (line.current_ms > line.limit_ms) {
      line.regressed = true;
      ++report.regressions;
      // Attribute the regression to phases when both sides carry a
      // profiled-rep breakdown: rank phases by their share of the wall
      // delta so the gate's failure output names the slow phase directly.
      if (!current[i].phase_wall_ms.empty() && !base.phase_wall_ms.empty()) {
        const obs::PhaseDiff pd = obs::diff_phases(
            current[i].phase_wall_ms, base.phase_wall_ms, phase_reference_wall_ms(current[i]),
            phase_reference_wall_ms(base), report.calibration);
        line.attribution = obs::format_phase_diff(pd, "      ");
      }
    }
    // Determinism drift fails the gate: results are a pure function of
    // the instance, so a changed checksum or charged cost is a behaviour
    // change. So is a changed count-valued metric/* histogram (roster
    // sizes, message batches, cluster sizes): those reproduce run to run,
    // and a difference means a probe or the work it samples changed. A
    // deliberate change re-baselines in the same change.
    // Each drifted count reads old -> new and a checksum old -> new, so a
    // deliberate re-baseline shows which charges moved and by how much.
    const Record& cur = current[i];
    std::string drift = count_drift("rounds", base.rounds, cur.rounds) +
                        count_drift("messages", base.messages, cur.messages) +
                        count_drift("total_bits", base.total_bits, cur.total_bits) +
                        count_drift("max_message_bits", base.max_message_bits,
                                    cur.max_message_bits);
    if (!base.checksum.empty() && cur.checksum != base.checksum) {
      drift += " checksum " + base.checksum + " -> " + cur.checksum;
    }
    drift += metric_histogram_drift(cur, base);
    if (!drift.empty()) {
      line.drift = "drift vs baseline:" + drift;
      line.drifted = true;
      ++report.drifted;
    }
  }
  return report;
}

const char* verdict(const BaselineLine& line) {
  if (line.missing) return "no baseline";
  if (line.drifted) return "DRIFT";
  return line.regressed ? "REGRESSION" : "ok";
}

std::string format_report(const std::string& dir, const RecordDir& rd,
                          const std::string& baseline_dir) {
  BaselineReport report;
  const BaselineReport* baseline = nullptr;
  if (!baseline_dir.empty()) {
    report = compare_with_baseline(rd.records, baseline_dir, kDefaultThresholdPct / 100.0,
                                   kDefaultAbsSlackMs, /*calibrate=*/true);
    baseline = &report;
  }
  std::set<std::string> gits;
  for (const Record& r : rd.records) gits.insert(r.git.empty() ? "?" : r.git);
  std::string git_list;
  for (const std::string& g : gits) git_list += (git_list.empty() ? "" : ", ") + g;

  std::string out = "# dcolor-bench report\n\n";
  appendf(out, "%zu record(s) from `%s`; git: %s.\n", rd.records.size(), dir.c_str(),
          git_list.c_str());
  if (baseline) {
    appendf(out,
            "Baseline `%s`: calibration %.3f, threshold +%.0f%%, slack %.1f ms; "
            "%d regression(s), %d drifted, %d without a baseline.\n",
            baseline_dir.c_str(), report.calibration, kDefaultThresholdPct,
            kDefaultAbsSlackMs, report.regressions, report.drifted, report.missing);
  }
  out += "\n## Summary\n\n";
  summary_table(rd.records, baseline, out);
  out += "\n## Phase wall-time breakdown\n\n"
         "Per-phase span totals from the instrumented profiled rep, and their sum over that "
         "rep's own wall time (over the median wall ms for a record written without it) "
         "— see docs/OBSERVABILITY.md.\n\n";
  phase_tables(rd.records, out);
  out += "\n## Phase latency percentiles\n\n"
         "Worst per-record percentile estimate per phase, in ms, from the histogram "
         "snapshots (log-bucketed upper bounds — see docs/BENCH_SCHEMA.md).\n\n";
  percentile_table(rd.records, out);
  std::string failures;
  for (const Record& r : rd.records) {
    if (!(r.verified && r.checksum_stable)) {
      appendf(failures, "- **%s**\n", instance_label(r).c_str());
    }
  }
  if (!failures.empty()) out += "\n## Verification failures\n\n" + failures;
  if (!rd.warnings.empty()) {
    out += "\n## Warnings\n\n";
    for (const std::string& w : rd.warnings) out += "- " + w + "\n";
  }
  return out;
}

int run_report(const std::string& dir, const std::string& baseline_dir, std::FILE* out) {
  RecordDir rd;
  std::string err;
  if (!read_record_dir(dir, &rd, &err)) {
    std::fprintf(stderr, "dcolor-trace: %s\n", err.c_str());
    return 1;
  }
  if (rd.records.empty()) {
    std::fprintf(stderr, "dcolor-trace: no readable BENCH_*.json record under %s\n",
                 dir.c_str());
    return 1;
  }
  std::fputs(format_report(dir, rd, baseline_dir).c_str(), out);
  return 0;
}

}  // namespace dcolor::benchkit
