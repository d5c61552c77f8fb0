#include "src/benchkit/report.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "src/benchkit/json.h"
#include "src/benchkit/version.h"
#include "src/obs/obs.h"
#include "src/obs/trace_analysis.h"

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

// The metric/* histograms whose count, total, min or max differ between
// the two records, or that only one of them has, as " key" entries.
// metric/engine.serial_cutoff is left out: it echoes the
// DCOLOR_SERIAL_CUTOFF setting, which picks how an engine round is
// dispatched, never the work, so a cutoff sweep is not drift.
std::string metric_histogram_drift(const Record& cur, const Record& base) {
  auto metric_hists = [](const Record& r) {
    std::map<std::string, const RecordHistogram*> m;
    for (const RecordHistogram& h : r.histograms) {
      if (h.key.rfind("metric/", 0) == 0 && h.key != "metric/engine.serial_cutoff") m[h.key] = &h;
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

}  // namespace

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

std::string record_filename(const Record& r) {
  std::string name = "BENCH_" + sanitize(r.scenario);
  if (r.scalable) name += "_t" + std::to_string(r.threads);
  return name + ".json";
}

std::string trace_filename(const Record& r) {
  std::string name = "TRACE_" + sanitize(r.scenario);
  if (r.scalable) name += "_t" + std::to_string(r.threads);
  return name + ".json";
}

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
      .field("nodes_rounds_per_sec", r.nodes_rounds_per_sec);
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
    hists += json_quote(h.key) + ":{\"count\":" + json_number(h.count) +
             ",\"total\":" + json_number(h.total) + ",\"min\":" + json_number(h.min) +
             ",\"max\":" + json_number(h.max) + ",\"p50\":" + json_number(h.p50) +
             ",\"p90\":" + json_number(h.p90) + ",\"p99\":" + json_number(h.p99) +
             ",\"buckets\":{";
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
      rh.count = static_cast<std::int64_t>(hv.number_or("count", 0));
      rh.total = static_cast<std::int64_t>(hv.number_or("total", 0));
      rh.min = static_cast<std::int64_t>(hv.number_or("min", 0));
      rh.max = static_cast<std::int64_t>(hv.number_or("max", 0));
      rh.p50 = static_cast<std::int64_t>(hv.number_or("p50", 0));
      rh.p90 = static_cast<std::int64_t>(hv.number_or("p90", 0));
      rh.p99 = static_cast<std::int64_t>(hv.number_or("p99", 0));
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

BaselineReport compare_with_baseline(const std::vector<Record>& current,
                                     const std::string& baseline_dir, double threshold_frac,
                                     double abs_slack_ms, bool calibrate) {
  BaselineReport report;
  std::vector<Record> baselines(current.size());
  std::vector<char> have(current.size(), 0);
  std::vector<double> ratios;

  for (std::size_t i = 0; i < current.size(); ++i) {
    BaselineLine line;
    line.file = record_filename(current[i]);
    line.current_ms = current[i].wall_ms;
    std::string err;
    Record base;
    if (read_record_file(baseline_dir + "/" + line.file, &base, &err) && base.wall_ms > 0) {
      // Same-instance guard: a full-size run against quick baselines (or
      // a changed seed) would gate on nonsense ratios; such records are
      // incomparable, not regressed.
      if (base.n != current[i].n || base.quick != current[i].quick ||
          base.seed != current[i].seed) {
        line.missing = true;
        line.drift = "incomparable baseline (n/quick/seed differ)";
        ++report.missing;
      } else {
        baselines[i] = base;
        have[i] = 1;
        line.baseline_ms = base.wall_ms;
        line.ratio = current[i].wall_ms / base.wall_ms;
        ratios.push_back(line.ratio);
      }
    } else {
      line.missing = true;
      ++report.missing;
    }
    report.lines.push_back(line);
  }

  report.calibration = (calibrate && !ratios.empty()) ? median(ratios) : 1.0;
  if (report.calibration <= 0) report.calibration = 1.0;

  for (std::size_t i = 0; i < current.size(); ++i) {
    BaselineLine& line = report.lines[i];
    if (line.missing) continue;
    const Record& base = baselines[i];
    line.limit_ms = base.wall_ms * report.calibration * (1.0 + threshold_frac) + abs_slack_ms;
    if (line.current_ms > line.limit_ms) {
      line.regressed = true;
      ++report.regressions;
      // Attribute the regression to phases when both sides carry a
      // profiled-rep breakdown: rank phases by their share of the wall
      // delta so the gate's failure output names the slow phase directly.
      if (!current[i].phase_wall_ms.empty() && !base.phase_wall_ms.empty()) {
        const obs::PhaseDiff pd =
            obs::diff_phases(current[i].phase_wall_ms, base.phase_wall_ms, line.current_ms,
                             line.baseline_ms, report.calibration);
        line.attribution = obs::format_phase_diff(pd, "      ");
      }
    }
    // Determinism drift fails the gate: results are a pure function of
    // the instance, so a changed checksum or charged cost is a behaviour
    // change. So is a changed count-valued metric/* histogram (roster
    // sizes, message batches, cluster sizes): those reproduce run to run,
    // and a difference means a probe or the work it samples changed. A
    // deliberate change re-baselines in the same change.
    std::string drift;
    if (current[i].rounds != base.rounds) drift += " rounds";
    if (current[i].messages != base.messages) drift += " messages";
    if (current[i].total_bits != base.total_bits) drift += " total_bits";
    if (current[i].max_message_bits != base.max_message_bits) drift += " max_message_bits";
    if (!base.checksum.empty() && current[i].checksum != base.checksum) drift += " checksum";
    drift += metric_histogram_drift(current[i], base);
    if (!drift.empty()) {
      line.drift = "drift vs baseline:" + drift;
      line.drifted = true;
      ++report.drifted;
    }
  }
  return report;
}

}  // namespace dcolor::benchkit
