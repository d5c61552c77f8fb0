#include "src/benchkit/cli.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
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

const char* const kKnownFlags[] = {
    "--list",      "--min-scenarios", "--filter",  "--quick",        "--threads",
    "--reps",      "--warmup",        "--seed",    "--json-dir",     "--baseline",
    "--threshold", "--abs-slack-ms",  "--no-calibrate", "--no-parity", "--trace",
    "--help",
};

// Flags that consume the following argv entry when written as
// "--flag value".
bool takes_value(const char* arg) {
  static const char* const valued[] = {"--min-scenarios", "--filter", "--threads",
                                       "--reps",          "--warmup", "--seed",
                                       "--json-dir",      "--baseline", "--threshold",
                                       "--abs-slack-ms",  "--trace"};
  for (const char* f : valued) {
    if (std::strcmp(arg, f) == 0) return true;
  }
  return false;
}

bool known_flag(const char* arg) {
  for (const char* f : kKnownFlags) {
    const std::size_t len = std::strlen(f);
    if (std::strcmp(arg, f) == 0) return true;
    // "--flag=value" only for flags that take a value: "--quick=1" would
    // pass validation here but be silently ignored by has_flag.
    if (takes_value(f) && std::strncmp(arg, f, len) == 0 && arg[len] == '=') return true;
  }
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
      if (takes_value(argv[i])) ++i;  // skip the value
    } else {
      std::fprintf(stderr, "dcolor-bench: unexpected argument '%s'\n\n%s", argv[i], kUsage);
      return kExitUsage;
    }
  }
  if (has_flag(argc, argv, "--help")) {
    std::fprintf(out, "%s", kUsage);
    return kExitOk;
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
    const auto min_list = parse_int_list(flag_value(argc, argv, "--min-scenarios", ""));
    if (!min_list.empty() && static_cast<long long>(selected.size()) < min_list.front()) {
      std::fprintf(stderr, "dcolor-bench: %zu scenarios registered, expected >= %lld\n",
                   selected.size(), min_list.front());
      return kExitVerifyFailure;
    }
    return kExitOk;
  }

  if (selected.empty()) {
    std::fprintf(stderr, "dcolor-bench: no scenario matches the filter\n");
    return kExitUsage;
  }

  RunnerOptions opt;
  opt.quick = has_flag(argc, argv, "--quick");
  const auto reps = parse_int_list(flag_value(argc, argv, "--reps", ""));
  if (!reps.empty()) opt.reps = std::max(1, static_cast<int>(reps.front()));
  const auto warmup = parse_int_list(flag_value(argc, argv, "--warmup", ""));
  if (!warmup.empty()) opt.warmup = std::max(0, static_cast<int>(warmup.front()));
  opt.seed = std::strtoull(flag_value(argc, argv, "--seed", "42").c_str(), nullptr, 10);
  const std::string trace_dir = flag_value(argc, argv, "--trace", "");
  opt.trace = !trace_dir.empty();

  // --threads is validated, not silently filtered: "0", "-3" or "4096"
  // used to be dropped on the floor and the sweep quietly ran at the
  // surviving (or default) counts — a benchmark that LOOKS like it
  // measured the requested configuration. Bad values are a usage error.
  const std::string threads_csv = flag_value(argc, argv, "--threads", "1,2");
  const auto threads_parsed = parse_int_list(threads_csv);
  if (threads_parsed.empty()) {
    std::fprintf(stderr, "dcolor-bench: --threads '%s' contains no integer thread counts\n\n%s",
                 threads_csv.c_str(), kUsage);
    return kExitUsage;
  }
  std::vector<int> thread_counts;
  for (long long t : threads_parsed) {
    if (t < 1 || t > kMaxThreads) {
      std::fprintf(stderr,
                   "dcolor-bench: invalid --threads value %lld (must be in [1, %d])\n\n%s", t,
                   kMaxThreads, kUsage);
      return kExitUsage;
    }
    thread_counts.push_back(static_cast<int>(t));
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
    const double threshold =
        std::atof(flag_value(argc, argv, "--threshold", "15").c_str()) / 100.0;
    const double slack = std::atof(flag_value(argc, argv, "--abs-slack-ms", "2.0").c_str());
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
                   line.limit_ms,
                   line.regressed ? "REGRESSION" : (line.drifted ? "DRIFT" : "ok"),
                   line.drift.empty() ? "" : "  ", line.drift.c_str());
      // Regressed lines carry the ranked phase-attribution table — the
      // gate names the slow phase so failures start half-diagnosed.
      if (line.regressed && !line.attribution.empty()) {
        std::fprintf(out, "%s", line.attribution.c_str());
      }
    }
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
