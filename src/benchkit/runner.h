// The benchkit workload runner: executes one scenario instance with
// warmup + repeated timed runs, reports median and spread wall-clock,
// captures a PER-SCENARIO peak RSS and the run's congest::Metrics, and
// verifies the output on EVERY execution (warmup included) — an
// unverified run or a checksum unstable across the MEASURED reps marks
// the measurement failed (a warmup-only transient is reported separately
// and does not fail the gate).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/benchkit/scenario.h"
#include "src/obs/obs.h"

namespace dcolor::benchkit {

struct RunnerOptions {
  bool quick = false;
  int reps = 3;     // timed repetitions (median reported)
  int warmup = 1;   // untimed-but-verified executions first
  std::uint64_t seed = 42;
  // After the timed reps, run ONE extra execution under an obs
  // TraceSession to collect the per-phase wall-time breakdown — the timed
  // medians stay uninstrumented. The profiled rep is verified and its
  // checksum compared against the measured reps, so tracing that perturbs
  // results is caught on every benchmark run.
  bool profile = true;
  // With profile: also keep per-event storage and export the Chrome
  // trace JSON into Measurement::trace_json (the CLI's --trace flag).
  bool trace = false;
};

struct Measurement {
  // Scenario metadata, copied so records outlive the registry.
  std::string name;
  std::string family;
  std::string algorithm;
  std::string transport;
  std::string parity;
  bool scalable = false;
  int threads = 1;

  Outcome outcome;               // from the last timed rep
  std::vector<double> wall_ms;   // per timed rep
  double wall_ms_median = 0.0;
  double wall_ms_min = 0.0;
  double wall_ms_max = 0.0;
  int reps = 0;
  int warmup = 0;
  bool quick = false;
  // Peak RSS of THIS scenario's executions in KiB (not the process
  // lifetime peak): on Linux the kernel's peak-RSS watermark is reset at
  // the start of the scenario and VmHWM read back afterwards; elsewhere
  // the figure degrades to the growth of the lifetime peak across the
  // scenario (0 when memory peaked earlier in the process).
  std::int64_t rss_peak_kb = 0;

  bool verified = false;         // every execution verified
  // The measured reps all produced one checksum. Warmup reps are tracked
  // separately (below) so a cold-start transient cannot fail the gate.
  bool checksum_stable = false;
  // Every warmup checksum equals the measured checksum (vacuously true
  // with warmup = 0). Diagnostic only — not part of ok().
  bool warmup_checksum_matched = false;

  // Profiled rep (RunnerOptions::profile): per-phase wall-time totals in
  // ms from cat="phase" obs spans, in stable (sorted-by-name) order.
  // Phases may nest or run concurrently, so the totals are per-phase span
  // time, not a partition of wall_ms.
  std::vector<std::pair<std::string, double>> phase_wall_ms;
  // The profiled rep's own wall time in ms, the one execution its phases
  // come from (0 without profiling).
  double profiled_wall_ms = 0.0;
  bool profiled = false;
  // The profiled rep reproduced the measured checksum — tracing did not
  // perturb the run. true when profiling is off; part of ok(), so a
  // nondeterministic-under-tracing scenario fails every benchmark run.
  bool profile_checksum_matched = true;
  // Chrome trace-event JSON of the profiled rep (RunnerOptions::trace).
  std::string trace_json;
  // Merged (cat, name) histograms from the profiled rep — span durations,
  // counter samples, and the metric/* value probes (roster sizes, message
  // batches), sorted by (cat, name). Empty without profiling.
  std::vector<obs::HistogramSnapshot> histograms;
  // Ring events the profiled rep dropped (stats/histograms stay complete
  // regardless; a non-zero value means the TRACE_*.json is truncated).
  // Surfaced in console output and as a record field rather than
  // silently under-reporting the timeline.
  std::int64_t dropped_events = 0;

  bool ok() const {
    return verified && checksum_stable && profile_checksum_matched && outcome.n > 0;
  }
};

// Runs `s` at the given engine thread count (ignored by non-scalable
// scenarios, which receive threads = 1).
Measurement run_scenario(const Scenario& s, int threads, const RunnerOptions& opt);

// Median of a non-empty sample (lower-middle for even sizes, so two-point
// comparisons stay deterministic).
double median(std::vector<double> values);

// Peak resident set size of this process in KiB (0 where unsupported).
// Process-LIFETIME peak: monotone non-decreasing, never scenario-scoped.
std::int64_t peak_rss_kb();

// Scenario-scoped RSS measurement window. begin() arms the window (on
// Linux by resetting the kernel peak-RSS watermark via
// /proc/self/clear_refs); end() returns the peak RSS attributable to the
// window — VmHWM where the reset worked, otherwise the growth of the
// lifetime peak since begin(). Windows must not nest.
struct RssWindow {
  bool reset_worked = false;     // clear_refs reset succeeded; read VmHWM
  std::int64_t baseline_kb = 0;  // lifetime peak at begin() (fallback)
};
RssWindow rss_window_begin();
std::int64_t rss_window_end(const RssWindow& w);

}  // namespace dcolor::benchkit
