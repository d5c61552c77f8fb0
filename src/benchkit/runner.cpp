#include "src/benchkit/runner.h"

#include <algorithm>
#include <chrono>

#include "src/obs/obs.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define DCOLOR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DCOLOR_ASAN 1
#endif
#endif
#if defined(DCOLOR_ASAN)
// Drains ASan's free-memory quarantine and returns it to the OS. gcc
// ships no header declaring it.
extern "C" void __sanitizer_purge_allocator();
#endif

namespace dcolor::benchkit {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

std::int64_t peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::int64_t>(ru.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<std::int64_t>(ru.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

namespace {

#if defined(__linux__)
// VmHWM from /proc/self/status in KiB, or -1 when unreadable. Unlike
// getrusage's ru_maxrss, the kernel lets this watermark be reset.
std::int64_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return -1;
  std::int64_t hwm = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::int64_t kb = -1;
      if (std::sscanf(line + 6, "%" SCNd64, &kb) == 1) hwm = kb;
      break;
    }
  }
  std::fclose(f);
  return hwm;
}

// Resets the peak-RSS watermark to the current RSS ("5" per
// Documentation/filesystems/proc.rst). False when the kernel or a
// sandbox refuses the write.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "we");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}
#endif

}  // namespace

RssWindow rss_window_begin() {
  RssWindow w;
#if defined(DCOLOR_ASAN)
  // Memory an earlier window freed stays resident in the quarantine and
  // would count toward this window's peak.
  __sanitizer_purge_allocator();
#endif
#if defined(__linux__)
  if (reset_peak_rss() && vm_hwm_kb() >= 0) {
    w.reset_worked = true;
    return w;
  }
#endif
  w.baseline_kb = peak_rss_kb();
  return w;
}

std::int64_t rss_window_end(const RssWindow& w) {
#if defined(__linux__)
  if (w.reset_worked) {
    const std::int64_t hwm = vm_hwm_kb();
    if (hwm >= 0) return hwm;
  }
#endif
  return std::max<std::int64_t>(0, peak_rss_kb() - w.baseline_kb);
}

Measurement run_scenario(const Scenario& s, int threads, const RunnerOptions& opt) {
  Measurement m;
  m.name = s.name;
  m.family = s.family;
  m.algorithm = s.algorithm;
  m.transport = s.transport;
  m.parity = s.parity;
  m.scalable = s.scalable;
  m.threads = s.scalable ? threads : 1;
  m.reps = std::max(1, opt.reps);
  m.warmup = std::max(0, opt.warmup);
  m.quick = opt.quick;

  RunConfig cfg;
  cfg.quick = opt.quick;
  cfg.threads = m.threads;
  cfg.seed = opt.seed;

  // Scenario-scoped RSS: the window covers setup + every execution, so
  // the figure is this scenario's own footprint, not whatever earlier
  // scenario in the same process peaked highest.
  const RssWindow rss = rss_window_begin();

  Prepared prepared = s.setup(cfg);

  m.verified = true;
  std::vector<std::uint64_t> checksums;
  checksums.reserve(static_cast<std::size_t>(m.warmup + m.reps));

  const int total = m.warmup + m.reps;
  for (int rep = 0; rep < total; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    Outcome o = prepared.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    m.verified = m.verified && o.verified;
    checksums.push_back(o.checksum);
    if (rep >= m.warmup) m.wall_ms.push_back(ms);
    m.outcome = std::move(o);
  }

  // Stability is judged on the MEASURED reps only: their first checksum
  // is the reference. Warmup reps are compared against that reference
  // separately, so a cold-start transient (e.g. a lazily built cache
  // perturbing the first execution) is reported but never fails ok().
  const std::uint64_t measured_checksum = checksums[static_cast<std::size_t>(m.warmup)];
  m.checksum_stable = true;
  for (std::size_t i = static_cast<std::size_t>(m.warmup); i < checksums.size(); ++i) {
    if (checksums[i] != measured_checksum) m.checksum_stable = false;
  }
  m.warmup_checksum_matched = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(m.warmup); ++i) {
    if (checksums[i] != measured_checksum) m.warmup_checksum_matched = false;
  }

  m.wall_ms_median = median(m.wall_ms);
  m.wall_ms_min = *std::min_element(m.wall_ms.begin(), m.wall_ms.end());
  m.wall_ms_max = *std::max_element(m.wall_ms.begin(), m.wall_ms.end());

  // Profiled rep: one extra execution under a TraceSession, AFTER the
  // timed reps so instrumentation cost can never leak into the medians.
  // Its output is held to the same bar as every other execution — and to
  // the measured checksum, making "tracing never perturbs results" a
  // property checked on every benchmark run, not just in the test suite.
  if (opt.profile) {
    obs::TraceSession::Options topts;
    topts.events = opt.trace;
    obs::TraceSession session(topts);
    Outcome o = prepared.run();
    session.stop();
    m.profiled = true;
    m.verified = m.verified && o.verified;
    m.profile_checksum_matched = (o.checksum == measured_checksum);
    m.histograms = session.histograms();
    for (const obs::HistogramSnapshot& h : m.histograms) {
      if (h.cat == obs::kCatPhase) {
        m.phase_wall_ms.emplace_back(h.name, static_cast<double>(h.total) / 1e6);
      }
    }
    m.dropped_events = session.dropped_events();
    if (opt.trace) m.trace_json = session.chrome_trace_json();
  }

  m.rss_peak_kb = rss_window_end(rss);
  return m;
}

}  // namespace dcolor::benchkit
