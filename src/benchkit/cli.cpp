#include "src/benchkit/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/benchkit/flags.h"
#include "src/benchkit/report.h"
#include "src/benchkit/runner.h"
#include "src/benchkit/scenario.h"
#include "src/benchkit/version.h"

namespace dcolor::benchkit {

namespace {

// Upper bound for --threads entries: generous for any real machine, small
// enough to catch typos ("40960") before ThreadPool tries to spawn them.
constexpr int kMaxThreads = 1024;

constexpr const char* kUsage =
    "dcolor-bench — unified workload driver over the benchkit scenario registry\n"
    "\n"
    "  --list               list registered scenarios (respects --filter) and exit\n"
    "  --min-scenarios N    with --list: exit 1 if fewer than N scenarios register\n"
    "  --filter S1,S2,...   run only scenarios whose name contains any substring\n"
    "  --quick              CI-sized instances instead of full-sized\n"
    "  --threads T1,T2,...  thread counts for scalable (engine) scenarios, each\n"
    "                       in [1, 1024] [1,2]\n"
    "  --reps R             timed repetitions per scenario, median reported [3]\n"
    "  --warmup W           verified warmup executions before timing [1]\n"
    "  --seed S             generator seed for scenarios that accept one [42]\n"
    "  --json-dir DIR       write one BENCH_<scenario>.json per instance to DIR\n"
    "  --trace DIR          write one TRACE_<scenario>.json Chrome trace (open in\n"
    "                       Perfetto / chrome://tracing) per instance to DIR\n"
    "  --baseline DIR       compare medians against DIR/BENCH_*.json; regression\n"
    "                       => exit 2; checksum/rounds/messages/bits or metric/*\n"
    "                       histogram drift => exit 1\n"
    "  --threshold PCT      regression threshold in percent [15]\n"
    "  --abs-slack-ms MS    absolute slack added to every limit [2.0]\n"
    "  --no-calibrate       compare raw medians (default: machine-speed\n"
    "                       calibration via the median current/baseline ratio)\n"
    "  --no-parity          skip the cross-transport checksum parity check\n";

// Flags that take no value, and flags that consume one ("--flag value"
// or "--flag=value").
constexpr std::string_view kSwitches[] = {"--list", "--quick", "--no-calibrate", "--no-parity",
                                          "--help"};
constexpr std::string_view kValued[] = {"--min-scenarios", "--filter",   "--threads",
                                        "--reps",          "--warmup",   "--seed",
                                        "--json-dir",      "--baseline", "--threshold",
                                        "--abs-slack-ms",  "--trace"};

bool takes_value(std::string_view arg) {
  return std::find(std::begin(kValued), std::end(kValued), arg) != std::end(kValued);
}

// "--flag=value" only for flags that take a value: "--quick=1" would
// pass validation here but be silently ignored by has_flag.
bool known_flag(std::string_view arg) {
  const std::string_view name = arg.substr(0, arg.find('='));
  return takes_value(name) ||
         (name == arg && std::find(std::begin(kSwitches), std::end(kSwitches), arg) !=
                             std::end(kSwitches));
}

// Strict number: the whole text must parse as a finite T >= min.
template <typename T>
bool parse_number(const std::string& text, T min, T* out) {
  const char* end = text.data() + text.size();
  T v{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(static_cast<double>(v)) || v < min) {
    return false;
  }
  *out = v;
  return true;
}

// A numeric flag's value through parse_number; anything else is a usage
// error naming the flag. An absent flag keeps the default in *value.
template <typename T>
bool numeric_flag(int argc, char** argv, const char* flag, T min, T* value) {
  const std::string text = flag_value(argc, argv, flag, std::to_string(*value));
  if (parse_number(text, min, value)) return true;
  std::fprintf(stderr, "dcolor-bench: invalid %s value '%s' (want a number >= %g)\n\n%s", flag,
               text.c_str(), static_cast<double>(min), kUsage);
  return false;
}

bool matches_filter(const std::string& name, const std::vector<std::string>& needles) {
  if (needles.empty()) return true;
  for (const std::string& needle : needles) {
    if (name.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

int run_cli(int argc, char** argv, std::FILE* out) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (!known_flag(argv[i])) {
        std::fprintf(stderr, "dcolor-bench: unknown flag '%s'\n\n%s", argv[i], kUsage);
        return kExitUsage;
      }
      if (takes_value(argv[i]) && ++i == argc) {  // skip the value
        std::fprintf(stderr, "dcolor-bench: %s needs a value\n\n%s", argv[i - 1], kUsage);
        return kExitUsage;
      }
    } else {
      std::fprintf(stderr, "dcolor-bench: unexpected argument '%s'\n\n%s", argv[i], kUsage);
      return kExitUsage;
    }
  }
  if (has_flag(argc, argv, "--help")) {
    std::fprintf(out, "%s", kUsage);
    return kExitOk;
  }

  RunnerOptions opt;
  long long min_scenarios = 0;
  double threshold_pct = kDefaultThresholdPct;
  double slack = kDefaultAbsSlackMs;
  if (!numeric_flag(argc, argv, "--reps", 1, &opt.reps) ||
      !numeric_flag(argc, argv, "--warmup", 0, &opt.warmup) ||
      !numeric_flag(argc, argv, "--seed", std::uint64_t{0}, &opt.seed) ||
      !numeric_flag(argc, argv, "--min-scenarios", 0LL, &min_scenarios) ||
      !numeric_flag(argc, argv, "--threshold", 0.0, &threshold_pct) ||
      !numeric_flag(argc, argv, "--abs-slack-ms", 0.0, &slack)) {
    return kExitUsage;
  }

  const auto filters = parse_string_list(flag_value(argc, argv, "--filter", ""));
  std::vector<Scenario> selected;
  for (const Scenario& s : all_scenarios()) {
    if (matches_filter(s.name, filters)) selected.push_back(s);
  }
  std::sort(selected.begin(), selected.end(),
            [](const Scenario& a, const Scenario& b) { return a.name < b.name; });

  if (has_flag(argc, argv, "--list")) {
    std::size_t width = 8;
    for (const Scenario& s : selected) width = std::max(width, s.name.size());
    std::fprintf(out, "%-*s  %-11s  %-9s  %-10s  %-7s  %s\n", static_cast<int>(width),
                 "scenario", "algorithm", "transport", "family", "threads", "description");
    for (const Scenario& s : selected) {
      std::fprintf(out, "%-*s  %-11s  %-9s  %-10s  %-7s  %s\n", static_cast<int>(width),
                   s.name.c_str(), s.algorithm.c_str(), s.transport.c_str(), s.family.c_str(),
                   s.scalable ? "sweep" : "1", s.description.c_str());
    }
    std::fprintf(out, "%zu scenario(s) registered (git %s)\n", selected.size(), git_describe());
    if (static_cast<long long>(selected.size()) < min_scenarios) {
      std::fprintf(stderr, "dcolor-bench: %zu scenarios registered, expected >= %lld\n",
                   selected.size(), min_scenarios);
      return kExitVerifyFailure;
    }
    return kExitOk;
  }

  if (selected.empty()) {
    std::fprintf(stderr, "dcolor-bench: no scenario matches the filter\n");
    return kExitUsage;
  }

  opt.quick = has_flag(argc, argv, "--quick");
  const std::string trace_dir = flag_value(argc, argv, "--trace", "");
  opt.trace = !trace_dir.empty();

  // --threads is validated, not silently filtered: "0", "-3" or "4096"
  // used to be dropped on the floor and the sweep quietly ran at the
  // surviving (or default) counts — a benchmark that LOOKS like it
  // measured the requested configuration. Bad values are a usage error.
  const std::string threads_csv = flag_value(argc, argv, "--threads", "1,2");
  std::vector<int> thread_counts;
  for (const std::string& tok : parse_string_list(threads_csv)) {
    int t = 0;
    if (!parse_number(tok, 1, &t) || t > kMaxThreads) {
      std::fprintf(stderr,
                   "dcolor-bench: invalid --threads value '%s' (must be in [1, %d])\n\n%s",
                   tok.c_str(), kMaxThreads, kUsage);
      return kExitUsage;
    }
    thread_counts.push_back(t);
  }
  if (thread_counts.empty()) {
    std::fprintf(stderr, "dcolor-bench: --threads '%s' contains no thread counts\n\n%s",
                 threads_csv.c_str(), kUsage);
    return kExitUsage;
  }

  // Run: scalable scenarios expand over the thread list (the cross
  // product), everything else runs once.
  std::vector<Measurement> measurements;
  bool all_ok = true;
  for (const Scenario& s : selected) {
    const std::vector<int> expansion = s.scalable ? thread_counts : std::vector<int>{1};
    for (int threads : expansion) {
      Measurement m = run_scenario(s, threads, opt);
      // Dropped ring events never corrupt stats/histograms, but they do
      // truncate the TRACE_*.json timeline — surfaced here rather than
      // silently under-reporting.
      std::string dropped;
      if (m.dropped_events > 0) {
        dropped = " DROPPED-EVENTS(" + std::to_string(m.dropped_events) + ")";
      }
      std::fprintf(out, "%-34s t=%-2d n=%-8lld %9.2f ms  rounds=%-10lld %s%s%s%s%s\n",
                   m.name.c_str(), m.threads, static_cast<long long>(m.outcome.n),
                   m.wall_ms_median, static_cast<long long>(m.outcome.metrics.rounds),
                   m.verified ? "verified" : "VERIFY-FAILED",
                   m.checksum_stable ? "" : " CHECKSUM-UNSTABLE",
                   m.profile_checksum_matched ? "" : " TRACE-PERTURBED",
                   m.warmup_checksum_matched ? "" : " warmup-transient", dropped.c_str());
      if (!m.ok()) all_ok = false;
      measurements.push_back(std::move(m));
    }
  }

  // Cross-transport parity: scenarios sharing a parity key must agree —
  // for equal problem sizes (Network vs engine, any thread count) — on
  // the output checksum AND the full Metrics tuple, matching the
  // bit-identical guarantee of the runtime engine. This is the old bench
  // binaries' parity abort, reborn at registry scale.
  if (!has_flag(argc, argv, "--no-parity")) {
    using Fingerprint = std::tuple<std::uint64_t, std::int64_t, std::int64_t, std::int64_t, int>;
    std::map<std::pair<std::string, std::int64_t>, std::set<std::string>> groups;
    std::map<std::pair<std::string, std::int64_t>, std::set<Fingerprint>> prints;
    for (const Measurement& m : measurements) {
      if (m.parity.empty()) continue;
      const auto key = std::make_pair(m.parity, m.outcome.n);
      groups[key].insert(m.name + "(t=" + std::to_string(m.threads) + ")");
      prints[key].insert(Fingerprint{m.outcome.checksum, m.outcome.metrics.rounds,
                                     m.outcome.metrics.messages, m.outcome.metrics.total_bits,
                                     m.outcome.metrics.max_message_bits});
    }
    for (const auto& [key, fingerprints] : prints) {
      if (fingerprints.size() <= 1) continue;
      all_ok = false;
      std::string members;
      for (const std::string& name : groups[key]) members += " " + name;
      std::fprintf(stderr,
                   "PARITY FAILURE group '%s' n=%lld:%s disagree on checksum or Metrics\n",
                   key.first.c_str(), static_cast<long long>(key.second), members.c_str());
    }
  }

  std::vector<Record> records;
  records.reserve(measurements.size());
  for (const Measurement& m : measurements) records.push_back(to_record(m));

  const std::string json_dir = flag_value(argc, argv, "--json-dir", "");
  if (!json_dir.empty()) {
    for (const Record& r : records) {
      std::string err;
      if (!write_record_file(json_dir, r, &err)) {
        std::fprintf(stderr, "dcolor-bench: %s\n", err.c_str());
        return kExitVerifyFailure;
      }
    }
    std::fprintf(out, "wrote %zu BENCH_*.json record(s) to %s\n", records.size(),
                 json_dir.c_str());
  }

  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    std::size_t written = 0;
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      if (measurements[i].trace_json.empty()) continue;
      const std::string path = trace_dir + "/" + trace_filename(records[i]);
      std::ofstream f(path);
      f << measurements[i].trace_json << "\n";
      f.close();
      if (!f) {
        std::fprintf(stderr, "dcolor-bench: cannot write %s\n", path.c_str());
        return kExitVerifyFailure;
      }
      ++written;
    }
    std::fprintf(out, "wrote %zu TRACE_*.json Chrome trace(s) to %s\n", written,
                 trace_dir.c_str());
  }

  int exit_code = all_ok ? kExitOk : kExitVerifyFailure;

  const std::string baseline_dir = flag_value(argc, argv, "--baseline", "");
  if (!baseline_dir.empty()) {
    const double threshold = threshold_pct / 100.0;
    const bool calibrate = !has_flag(argc, argv, "--no-calibrate");
    const BaselineReport report =
        compare_with_baseline(records, baseline_dir, threshold, slack, calibrate);
    std::fprintf(out, "\nbaseline %s (calibration %.3f, threshold %+.0f%%, slack %.1f ms)\n",
                 baseline_dir.c_str(), report.calibration, threshold * 100.0, slack);
    for (const BaselineLine& line : report.lines) {
      if (line.missing) {
        std::fprintf(out, "  %-44s (%s)\n", line.file.c_str(),
                     line.drift.empty() ? "no baseline" : line.drift.c_str());
        continue;
      }
      std::fprintf(out, "  %-44s %9.2f ms vs %9.2f ms  ratio %5.2f  limit %9.2f %s%s%s\n",
                   line.file.c_str(), line.current_ms, line.baseline_ms, line.ratio,
                   line.limit_ms, verdict(line), line.drift.empty() ? "" : "  ",
                   line.drift.c_str());
      // Regressed lines carry the ranked phase-attribution table — the
      // gate names the slow phase so failures start half-diagnosed.
      if (line.regressed && !line.attribution.empty()) {
        std::fprintf(out, "%s", line.attribution.c_str());
      }
    }
    // The notes below go to stderr; flush the table first, so a caller
    // that merges the two streams never gets a note inside a table line.
    std::fflush(out);
    // Per-record misses are benign (new scenarios gate after the next
    // baseline refresh), but zero matches means the gate compared
    // nothing — a wrong --baseline path or wholesale rename must not
    // pass vacuously.
    if (report.missing == static_cast<int>(report.lines.size())) {
      std::fprintf(stderr, "dcolor-bench: no baseline record matched under %s\n",
                   baseline_dir.c_str());
      if (exit_code == kExitOk) exit_code = kExitUsage;
    }
    // The median-ratio calibration makes the gate portable across
    // machine speeds, which also means a change slowing MOST scenarios
    // uniformly looks like a slower machine. Surface that loudly.
    if (report.calibration > 1.0 + threshold) {
      std::fprintf(stderr,
                   "dcolor-bench: WARNING calibration %.2f exceeds the threshold — either "
                   "this machine is slower than the baseline recorder or a change slowed "
                   "most scenarios; inspect the per-scenario ratios\n",
                   report.calibration);
    }
    if (report.drifted > 0) {
      std::fprintf(stderr,
                   "dcolor-bench: %d record(s) drifted from their baseline in checksum, "
                   "charged cost or metric histograms\n",
                   report.drifted);
      if (exit_code == kExitOk || exit_code == kExitRegression) exit_code = kExitVerifyFailure;
    }
    if (report.regressions > 0) {
      std::fprintf(stderr, "dcolor-bench: %d scenario(s) regressed beyond %+.0f%%\n",
                   report.regressions, threshold * 100.0);
      if (exit_code == kExitOk) exit_code = kExitRegression;
    }
  }

  return exit_code;
}

}  // namespace dcolor::benchkit
