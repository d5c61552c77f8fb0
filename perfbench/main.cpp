// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Builds the workload's inputs from the seed, then solves them again and
// again for S seconds, verifying every solve. With --trace 0 it reports
// the end-to-end figures (untraced solves, their times scaled to the
// reference machine speed by the yardstick); with --trace 1 the per-layer
// figures (solves through the timing decorators, alternated with
// untraced solves for the overhead figure). The last line of stdout is
// the result object, with each figure as name -> value (run.py attaches
// the units from BENCHMARK.json); the line before it records the run
// context.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/timed_transport.h"
#include "perfbench/workloads.h"
#include "perfbench/yardstick.h"
#include "src/benchkit/json.h"
#include "src/benchkit/runner.h"
#include "src/benchkit/verify.h"
#include "src/benchkit/version.h"
#include "src/graph/properties.h"

namespace {

using perfbench::Instance;
using perfbench::LayerFigures;
using perfbench::SolveResult;
using perfbench::Workload;
using perfbench::Yardstick;
using perfbench::ms_since;
using Clock = std::chrono::steady_clock;
namespace bk = dcolor::benchkit;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               why);
  for (const Workload& w : perfbench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::int64_t parse_int(const char* flag, const char* text, std::int64_t lo, std::int64_t hi) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < lo || v > hi) {
    usage((std::string(flag) + " expects an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got '" + text + "'")
              .c_str());
  }
  return v;
}

std::string json_array(const std::vector<double>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ",";
    s += bk::json_number(xs[i]);
  }
  return s + "]";
}

// Every solve is checked the same way: a valid list coloring against the
// pristine lists, and the checksum and Metrics of the run's first solve.
class Checker {
 public:
  explicit Checker(const Instance& in) : in_(in) {}

  bool check(const SolveResult& r, const char* label) {
    ++attempted_;
    std::string why;
    bool ok = perfbench::verify(in_, r, &why);
    const std::uint64_t sum = bk::checksum_values(r.colors);
    if (ok && !have_ref_) {
      have_ref_ = true;
      ref_sum_ = sum;
      ref_metrics_ = r.metrics;
    } else if (ok && (sum != ref_sum_ || !perfbench::same_metrics(r.metrics, ref_metrics_))) {
      ok = false;
      why = "checksum or Metrics differ from the run's first solve";
    }
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: %s solve failed: %s\n", label, why.c_str());
    }
    return ok;
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool have_ref() const { return have_ref_; }
  std::uint64_t checksum() const { return ref_sum_; }
  const dcolor::congest::Metrics& metrics() const { return ref_metrics_; }

 private:
  const Instance& in_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool have_ref_ = false;
  std::uint64_t ref_sum_ = 0;
  dcolor::congest::Metrics ref_metrics_;
};

// A typical speed index (Yardstick::around) on a 4-vCPU Xeon VM. Times are
// reported as wall time x kReferenceIndexMs / index: what they would read
// on a machine whose index is 30 ms.
constexpr double kReferenceIndexMs = 30.0;

// Wall times and the speed index around each; `scaled()` is the median of
// the scaled times. An even count averages the two middle values:
// benchkit::median takes the lower one, which over the four set-up blocks
// leans toward the fastest.
struct Timings {
  std::vector<double> wall_ms;
  std::vector<double> index_ms;

  double scaled() const {
    std::vector<double> xs;
    for (std::size_t i = 0; i < wall_ms.size(); ++i) {
      xs.push_back(wall_ms[i] * kReferenceIndexMs / index_ms[i]);
    }
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
  }
};

// A 1-thread solve runs pinned, each on the next allowed CPU in turn, so
// that a run's samples cover every vCPU instead of the one the scheduler
// keeps it on.
int next_pin_cpu(int threads) {
  static std::size_t turn = 0;
  const std::vector<int>& cpus = perfbench::allowed_cpus();
  if (threads > 1 || cpus.empty()) return -1;
  return cpus[turn++ % cpus.size()];
}

void timed_solve(const Workload& w, const Instance& in, int threads, int index_threads,
                 const Yardstick& yard, Checker& checker, const char* label, Timings* out) {
  SolveResult r;
  double ms = 0.0;
  const double index = yard.around(index_threads, next_pin_cpu(threads), [&] {
    const auto t0 = Clock::now();
    r = w.solve(in, threads);
    ms = ms_since(t0);
  });
  checker.check(r, label);
  if (out != nullptr) {
    out->wall_ms.push_back(ms);
    out->index_ms.push_back(index);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::int64_t seed = -1;
  std::int64_t seconds = -1;
  std::int64_t trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* val = argv[++i];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = parse_int("--seed", val, 0, INT64_MAX);
    } else if (flag == "--seconds") {
      seconds = parse_int("--seconds", val, 1, 120);
    } else if (flag == "--trace") {
      trace = parse_int("--trace", val, 0, 1);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || seed < 0 || seconds < 0 || trace < 0) usage("missing a required flag");
  const Workload* wp = perfbench::find_workload(workload);
  if (wp == nullptr) usage(("unknown workload '" + workload + "'").c_str());
  const Workload& w = *wp;

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
  std::fprintf(stderr, "perfbench: WARNING: unoptimized build; timings are not comparable\n");
#endif
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // One core is left to the OS and the caller: with every core busy, a
  // descheduled engine worker stalls each round barrier it takes part in.
  const int threads = std::clamp(w.threads, 1, std::max(1, nproc - 1));
  // At 1 thread the workload's own solves are the 1-thread baseline.
  const bool separate_1t = threads > 1;

  const Yardstick yard;
  // ---- set-up: generate the inputs again and again in four blocks of a
  // quarter second (at least five set-ups each), two before the solves and
  // two after them, outside the memory window. Each block's median is
  // scaled by the speed index around the block, and setup_s is the median
  // of the four: whether freed pages go back to the kernel depends on the
  // heap's layout, and adds half to a grid set-up in some blocks and not
  // others, so a median over every set-up jumps between the two levels.
  Timings setup;  // one entry per block
  std::vector<double> setup_block_reps;
  auto setup_block = [&] {
    Instance last;
    std::vector<double> block;
    const double index = yard.around(threads, -1, [&] {
      const auto until = Clock::now() + std::chrono::milliseconds(250);
      while (Clock::now() < until || block.size() < 5) {
        last = Instance{};
        const auto t0 = Clock::now();
        last = w.make(static_cast<std::uint64_t>(seed));
        block.push_back(ms_since(t0));
      }
    });
    setup.wall_ms.push_back(bk::median(block));
    setup.index_ms.push_back(index);
    setup_block_reps.push_back(static_cast<double>(block.size()));
    return last;
  };
  setup_block();
  const Instance in = setup_block();
  if (w.needs_connected && !dcolor::is_connected(*in.g)) {
    std::fprintf(stderr,
                 "perfbench: seed %lld gives a disconnected %s graph; Theorem 1.1 needs a "
                 "connected graph, choose another seed\n",
                 static_cast<long long>(seed), w.name);
    return 3;
  }

  Checker checker(in);
  Timings solve;
  Timings solve_1t;
  std::vector<double> traced_ms;
  std::vector<LayerFigures> traced;

  const bk::RssWindow rss = bk::rss_window_begin();
  // First solve: warms caches and sets the reference checksum and Metrics.
  timed_solve(w, in, threads, threads, yard, checker, "first", nullptr);
  const auto deadline = Clock::now() + std::chrono::seconds(seconds);
  if (trace == 0) {
    while (Clock::now() < deadline || solve.wall_ms.size() < 3) {
      timed_solve(w, in, threads, threads, yard, checker, "untraced", &solve);
      if (separate_1t) timed_solve(w, in, 1, threads, yard, checker, "1-thread", &solve_1t);
    }
    if (!separate_1t) solve_1t = solve;
  } else {
    for (int rep = 0; Clock::now() < deadline || rep < 2; ++rep) {
      LayerFigures f;
      double wall_ms = 0.0;
      const SolveResult r = w.traced(in, threads, &f, &wall_ms);
      if (checker.check(r, "traced")) {
        traced.push_back(std::move(f));
        traced_ms.push_back(wall_ms);
      }
      timed_solve(w, in, threads, threads, yard, checker, "untraced", &solve);
    }
  }
  std::int64_t peak_rss_kb = bk::rss_window_end(rss);
  if (peak_rss_kb <= 0) peak_rss_kb = bk::peak_rss_kb();
  setup_block();
  setup_block();

  // ---- figures, name -> value.
  bk::JsonObjectWriter values;
  if (trace == 0) {
    const dcolor::congest::Metrics& cost = checker.metrics();
    values.field("solve_ms", solve.scaled())
        .field("solve_ms_1t", solve_1t.scaled())
        .field("setup_s", setup.scaled() / 1000.0)
        .field("peak_rss_mb", static_cast<double>(peak_rss_kb) / 1024.0)
        .field("rounds", static_cast<double>(cost.rounds))
        .field("messages", static_cast<double>(cost.messages))
        .field("bits", static_cast<double>(cost.total_bits));
  } else if (!traced.empty()) {
    // Median of each figure over the traced solves; only the figures the
    // workload's layers have. The overhead compares the run's traced and
    // untraced solves.
    const double overhead_pct =
        (bk::median(traced_ms) / bk::median(solve.wall_ms) - 1.0) * 100.0;
    for (LayerFigures& f : traced) f["bench.trace_overhead_pct"] = overhead_pct;
    for (const auto& [name, first_value] : traced.front()) {
      std::vector<double> xs;
      for (const LayerFigures& f : traced) xs.push_back(f.at(name));
      values.field(name.c_str(), bk::median(xs));
    }
  }

  // ---- run context, then the result as the last line.
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "0x%016llx",
                static_cast<unsigned long long>(checker.checksum()));
  bk::JsonObjectWriter ctx;
  ctx.field("workload", w.name)
      .field("seed", seed)
      .field("seconds", seconds)
      .field("trace", trace)
      .field("nproc", static_cast<std::int64_t>(nproc))
      .field_raw("threads", separate_1t ? "[" + std::to_string(threads) + ",1]"
                                     : std::string("[1]"))
      .field("compiler", kCompiler)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("optimized", optimized)
      .field("git_describe", bk::git_describe())
      .field("n", static_cast<std::int64_t>(in.g->num_nodes()))
      .field("m", static_cast<std::int64_t>(in.g->num_edges()))
      .field("max_degree", static_cast<std::int64_t>(in.g->max_degree()))
      .field("checksum", checker.have_ref() ? checksum : "none")
      .field("reference_index_ms", kReferenceIndexMs)
      .field_raw("setup_block_reps", json_array(setup_block_reps))
      .field_raw("setup_block_wall_ms", json_array(setup.wall_ms))
      .field_raw("setup_block_index_ms", json_array(setup.index_ms))
      .field_raw("solve_wall_ms_samples", json_array(solve.wall_ms))
      .field_raw("solve_index_ms_samples", json_array(solve.index_ms))
      .field_raw("solve_1t_wall_ms_samples",
                 json_array(separate_1t ? solve_1t.wall_ms : std::vector<double>{}))
      .field_raw("solve_1t_index_ms_samples",
                 json_array(separate_1t ? solve_1t.index_ms : std::vector<double>{}))
      .field_raw("traced_ms_samples", json_array(traced_ms))
      .field("failed_solves", checker.failed());
  std::printf("{\"context\":%s}\n", ctx.close().c_str());

  bk::JsonObjectWriter result;
  result.field("correct", checker.failed() == 0)
      .field("attempted", checker.attempted())
      .field("failed", checker.failed())
      .field_raw("values", values.close());
  std::printf("%s\n", result.close().c_str());
  return 0;
}
