// dcolor-trace: post-hoc analysis over the artifacts dcolor-bench leaves
// behind. Three subcommands:
//
//   dcolor-trace trace FILE...         critical-path report per Chrome
//                                      trace (TRACE_*.json): which rounds
//                                      and phases bound the wall clock,
//                                      per-thread busy/idle/steal slack.
//   dcolor-trace diff CUR_DIR BASE_DIR phase-by-phase attribution between
//                                      two BENCH_*.json record sets —
//                                      "phase X contributed Y ms of the
//                                      Z ms delta", paired and calibrated
//                                      by the baseline gate's own
//                                      benchkit::pair_with_baseline.
//   dcolor-trace report DIR [BASE_DIR] markdown report over one record set
//                                      (summary, phase breakdown, latency
//                                      percentiles); with BASE_DIR, the
//                                      gate's calibration and verdicts.
//
// The PERFORMANCE.md playbook runs `dcolor-trace diff` FIRST on any
// regression: it usually names the guilty phase before anyone reaches
// for a profiler.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/benchkit/report.h"
#include "src/benchkit/runner.h"
#include "src/obs/trace_analysis.h"

namespace {

constexpr const char* kUsage =
    "dcolor-trace — critical-path and regression-attribution analysis over\n"
    "dcolor-bench artifacts\n"
    "\n"
    "  dcolor-trace trace FILE...          critical-path report per TRACE_*.json\n"
    "                                      (Chrome trace from dcolor-bench --trace)\n"
    "  dcolor-trace diff CUR_DIR BASE_DIR  ranked per-phase wall-time attribution\n"
    "                                      between two BENCH_*.json directories,\n"
    "                                      calibrated by the median wall ratio\n"
    "  dcolor-trace report DIR [BASE_DIR]  markdown report over DIR's BENCH_*.json;\n"
    "                                      with BASE_DIR, the regression gate's\n"
    "                                      calibration and per-record verdicts\n"
    "  dcolor-trace --help                 this text\n"
    "\n"
    "exit status: 0 on success, 1 on usage or I/O errors or when report finds no\n"
    "record (findings never affect the exit code — gating belongs to\n"
    "dcolor-bench --baseline)\n";

int run_trace(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::fprintf(stderr, "dcolor-trace: trace needs at least one TRACE_*.json file\n\n%s",
                 kUsage);
    return 1;
  }
  int failures = 0;
  for (const std::string& path : files) {
    dcolor::obs::TraceData data;
    std::string err;
    if (!dcolor::obs::load_trace_file(path, &data, &err)) {
      std::fprintf(stderr, "dcolor-trace: %s\n", err.c_str());
      ++failures;
      continue;
    }
    const dcolor::obs::CriticalPathReport report = dcolor::obs::analyze_critical_path(data);
    std::fputs(dcolor::obs::format_critical_path(report, path).c_str(), stdout);
    if (data.dropped_events > 0) {
      std::printf("NOTE: %lld event(s) were dropped recording this trace — the timeline is\n"
                  "truncated (stats were unaffected)\n",
                  static_cast<long long>(data.dropped_events));
    }
    std::printf("\n");
  }
  return failures == 0 ? 0 : 1;
}

int run_diff(const std::string& cur_dir, const std::string& base_dir) {
  dcolor::benchkit::RecordDir rd;
  std::string err;
  if (!dcolor::benchkit::read_record_dir(cur_dir, &rd, &err)) {
    std::fprintf(stderr, "dcolor-trace: %s\n", err.c_str());
    return 1;
  }
  if (!rd.warnings.empty()) {
    std::fprintf(stderr, "dcolor-trace: %s\n", rd.warnings.front().c_str());
    return 1;
  }
  if (rd.records.empty()) {
    std::fprintf(stderr, "dcolor-trace: no BENCH_*.json under %s\n", cur_dir.c_str());
    return 1;
  }
  const std::vector<dcolor::benchkit::Record>& current = rd.records;
  const dcolor::benchkit::BaselinePairing pairing =
      dcolor::benchkit::pair_with_baseline(current, base_dir, /*calibrate=*/true);
  const std::size_t pairs = current.size() - static_cast<std::size_t>(pairing.unmatched);
  if (pairs == 0) {
    std::fprintf(stderr, "dcolor-trace: no comparable record pair between %s and %s\n",
                 cur_dir.c_str(), base_dir.c_str());
    return 1;
  }
  std::printf("phase attribution: %s vs %s — %zu pair(s), %d unmatched, calibration %.3f\n\n",
              cur_dir.c_str(), base_dir.c_str(), pairs, pairing.unmatched,
              pairing.calibration);

  for (std::size_t i = 0; i < current.size(); ++i) {
    const dcolor::benchkit::BaselineMatch& m = pairing.matches[i];
    if (!m.matched) continue;
    const dcolor::obs::PhaseDiff d = dcolor::obs::diff_phases(
        current[i].phase_wall_ms, m.baseline.phase_wall_ms, current[i].wall_ms,
        m.baseline.wall_ms, pairing.calibration);
    std::printf("== %s ==\n", dcolor::benchkit::record_filename(current[i]).c_str());
    std::fputs(dcolor::obs::format_phase_diff(d, "  ").c_str(), stdout);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    std::fputs(kUsage, argc < 2 ? stderr : stdout);
    return argc < 2 ? 1 : 0;
  }
  const std::string cmd = argv[1];
  if (cmd == "trace") {
    return run_trace(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (cmd == "report") {
    if (argc != 3 && argc != 4) {
      std::fprintf(stderr, "dcolor-trace: report takes DIR [BASE_DIR]\n\n%s", kUsage);
      return 1;
    }
    return dcolor::benchkit::run_report(argv[2], argc == 4 ? argv[3] : "", stdout);
  }
  if (cmd == "diff") {
    if (argc != 4) {
      std::fprintf(stderr, "dcolor-trace: diff takes exactly CUR_DIR BASE_DIR\n\n%s", kUsage);
      return 1;
    }
    return run_diff(argv[2], argv[3]);
  }
  std::fprintf(stderr, "dcolor-trace: unknown subcommand '%s'\n\n%s", cmd.c_str(), kUsage);
  return 1;
}
