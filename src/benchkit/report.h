// BENCH_*.json trajectory records: the stable schema every dcolor-bench
// run emits (one file per scenario instance), the reader, the baseline
// comparator behind `--baseline` / the CI regression gate, and the
// markdown report `dcolor-trace report` renders from a record directory.
//
// Schema "dcolor-bench/3" — every record is one JSON object with these
// keys, in this order:
//   schema, scenario, family, algorithm, transport, n, m, seed, threads,
//   scalable, quick, warmup, reps, wall_ms (median), wall_ms_min,
//   wall_ms_max, rounds, messages, total_bits, max_message_bits,
//   checksum (hex string), verified, checksum_stable, rss_peak_kb,
//   nodes_rounds_per_sec, phase_wall_ms (nested {phase: ms} object),
//   dropped_events, histograms (nested {"cat/name": {count, total, min,
//   max, p50, p90, p99, buckets:{bit_width: count}}} from the profiled
//   rep — see docs/BENCH_SCHEMA.md), git
//
// Baseline comparison is CALIBRATED by default: with ratios r_i =
// current_i / baseline_i, the median ratio estimates the machine-speed
// difference between the two runs, and a scenario regresses only when its
// ratio exceeds median * (1 + threshold) AND the absolute excess is above
// a small slack. A uniformly slower machine therefore never trips the
// gate, while a single scenario regressing stands out — which is what
// lets CI compare against baselines recorded on a different box.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/benchkit/runner.h"

namespace dcolor::benchkit {

inline constexpr const char* kRecordSchema = "dcolor-bench/3";

// The regression gate's defaults: dcolor-bench's --threshold (percent)
// and --abs-slack-ms, which `dcolor-trace report` also gates with.
inline constexpr double kDefaultThresholdPct = 15.0;
inline constexpr double kDefaultAbsSlackMs = 2.0;

// One serialized histogram of a record: the obs::HistogramSnapshot
// for key "cat/name", with write-time percentile estimates and the
// non-empty buckets as (bit_width, count) pairs in ascending bucket
// order (see obs::histogram_bucket for the bucket boundaries).
struct RecordHistogram {
  std::string key;  // "cat/name"
  std::int64_t count = 0;
  std::int64_t total = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
  std::vector<std::pair<int, std::int64_t>> buckets;
};

struct Record {
  std::string scenario;
  std::string family;
  std::string algorithm;
  std::string transport;
  std::int64_t n = 0;
  std::int64_t m = 0;
  std::uint64_t seed = 0;
  int threads = 1;
  bool scalable = false;
  bool quick = false;
  int warmup = 0;
  int reps = 0;
  double wall_ms = 0.0;      // median over the timed reps
  double wall_ms_min = 0.0;
  double wall_ms_max = 0.0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t total_bits = 0;
  std::int64_t max_message_bits = 0;
  std::string checksum;      // "0x%016x" — hex string; doubles can't hold 64 bits
  bool verified = false;
  bool checksum_stable = false;
  std::int64_t rss_peak_kb = 0;
  // Throughput in node-rounds per second — n * rounds / wall seconds,
  // the engine-loop work rate the ROADMAP asks to track (0 when wall or
  // rounds is 0).
  double nodes_rounds_per_sec = 0.0;
  // Per-phase wall-time totals (ms) from the profiled rep, sorted by
  // phase name. Phases may nest or run concurrently, so this is span time
  // per phase, not a partition of wall_ms.
  std::vector<std::pair<std::string, double>> phase_wall_ms;
  // Ring events the profiled rep dropped.
  std::int64_t dropped_events = 0;
  // The profiled rep's merged histograms, sorted by key.
  std::vector<RecordHistogram> histograms;
  std::string git;
};

Record to_record(const Measurement& m);

// "BENCH_<name with non-alnum -> '_'>[_t<threads>].json" (the thread
// suffix only for scalable scenarios, keeping expanded instances apart).
std::string record_filename(const Record& r);

// "TRACE_<same stem>.json": where --trace writes the scenario execution's
// Chrome trace alongside its BENCH record.
std::string trace_filename(const Record& r);

std::string record_json(const Record& r);

// Parses one record; returns false with a diagnostic on malformed input
// or any schema other than kRecordSchema.
bool parse_record(const std::string& json_text, Record* out, std::string* err);
bool read_record_file(const std::string& path, Record* out, std::string* err);

// Every BENCH_*.json of one directory, in filename order. A file that
// does not parse as a kRecordSchema record is left out and named in
// `warnings` ("BENCH_x.json: why").
struct RecordDir {
  std::vector<Record> records;
  std::vector<std::string> warnings;
};

// Returns false with a diagnostic only when `dir` cannot be listed.
bool read_record_dir(const std::string& dir, RecordDir* out, std::string* err);

// Writes `r` to dir/record_filename(r) (creating `dir` if needed).
// Returns false with a diagnostic on I/O failure.
bool write_record_file(const std::string& dir, const Record& r, std::string* err);

// One current record's baseline: baseline_dir/record_filename(current),
// used only when it describes the same instance (n, quick and seed equal)
// and has a positive wall_ms.
struct BaselineMatch {
  bool matched = false;
  bool incomparable = false;  // a baseline exists, but n/quick/seed differ
  Record baseline;            // valid when matched
};

struct BaselinePairing {
  std::vector<BaselineMatch> matches;  // parallel to the current records
  double calibration = 1.0;  // median current/baseline wall ratio over the matches
  int unmatched = 0;
};

// The pairing and calibration behind both compare_with_baseline and
// `dcolor-trace diff`. calibrate = false pins the calibration to 1.0.
BaselinePairing pair_with_baseline(const std::vector<Record>& current,
                                   const std::string& baseline_dir, bool calibrate);

struct BaselineLine {
  std::string file;
  double current_ms = 0.0;
  double baseline_ms = 0.0;
  double ratio = 0.0;        // current / baseline
  double limit_ms = 0.0;     // the wall the current median had to stay under
  bool missing = false;      // no baseline record (new scenario — not a failure)
  bool regressed = false;
  // Determinism drift: checksum, rounds, messages, total_bits,
  // max_message_bits, or the count/total/min/max of a metric/* histogram
  // differ from the baseline. A failure, like verify.
  bool drifted = false;
  std::string drift;         // the drifted fields, or why the baseline is incomparable
  // Regressed lines only: the ranked per-phase attribution table
  // ("#1 phase X ... +Y ms (N% of delta)") from obs::diff_phases over the
  // two records' phase_wall_ms, pre-formatted for console output. Empty
  // when either side lacks a phase breakdown.
  std::string attribution;
};

struct BaselineReport {
  std::vector<BaselineLine> lines;
  double calibration = 1.0;  // median current/baseline ratio (1.0 uncalibrated)
  int regressions = 0;
  int drifted = 0;
  int missing = 0;
};

// threshold_frac: 0.15 = fail above +15% over the calibrated baseline.
// abs_slack_ms guards micro-runs against scheduler noise.
BaselineReport compare_with_baseline(const std::vector<Record>& current,
                                     const std::string& baseline_dir, double threshold_frac,
                                     double abs_slack_ms, bool calibrate);

// The gate's verdict on one line: "DRIFT", "REGRESSION", "ok", or
// "no baseline" for a missing or incomparable one. DRIFT outranks
// REGRESSION, as exit code 1 outranks 2: a drifted record that also ran
// slow reads DRIFT.
const char* verdict(const BaselineLine& line);

// The markdown report over the records read from `dir`: Summary,
// per-phase wall time, phase latency percentiles, verification failures
// and rd.warnings. With a non-empty baseline_dir, compare_with_baseline
// gates rd.records at the default threshold and slack: the header states
// the calibration and the Summary gains ratio, limit and verdict columns.
std::string format_report(const std::string& dir, const RecordDir& rd,
                          const std::string& baseline_dir);

// `dcolor-trace report DIR [BASE_DIR]`: writes format_report to `out`.
// Returns 1 when DIR yields no record, with a message on stderr, and 0
// otherwise: findings never change the exit code.
int run_report(const std::string& dir, const std::string& baseline_dir, std::FILE* out);

}  // namespace dcolor::benchkit
