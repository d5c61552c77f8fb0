// Self-test of the benchmark's own timing decorators and verifier, at tiny
// sizes: a decorated solve must reproduce the undecorated colors, Metrics
// and iteration counts, and the timed layers must fit inside the wall time
// they were measured in. A pinned yardstick interval must give its CPUs
// back. Exits non-zero on the first failed check.
//
//   python3 perfbench/run.py --selftest
#include <sched.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/timed_transport.h"
#include "perfbench/workloads.h"
#include "perfbench/yardstick.h"
#include "src/coloring/theorem11.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/theorem11_program.h"

namespace {

using namespace dcolor;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

int g_checks = 0;

#define CHECK(cond)                                                         \
  do {                                                                      \
    ++g_checks;                                                             \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                  \
      std::exit(1);                                                         \
    }                                                                       \
  } while (0)

// Slack for comparing sums of separately measured clock intervals.
constexpr double kSlackMs = 0.05;

void theorem11_decorated_matches(const Graph& g, const ListInstance& lists, int threads) {
  const Theorem11Result plain = runtime::theorem11_coloring(g, lists, threads);

  runtime::EngineColoringTransport engine(g, threads);
  TransportTimes tt;
  TimedColoringTransport timed(engine, &tt);
  const auto t0 = Clock::now();
  const Theorem11Result traced = theorem11_run(timed, lists);
  const double wall_ms = ms_since(t0);

  CHECK(traced.colors == plain.colors);
  CHECK(same_metrics(traced.metrics, plain.metrics));
  CHECK(traced.iterations == plain.iterations);
  CHECK(traced.per_iteration.size() == plain.per_iteration.size());
  CHECK(lists.valid_solution(traced.colors));

  // Every charged round comes from a transport call, each call once.
  std::int64_t rounds = 0;
  for (const PrimStats& p : tt.prim) rounds += p.rounds;
  CHECK(rounds == traced.metrics.rounds);
  CHECK(tt.prim[kLinial].calls == 1);
  CHECK(tt.prim[kBuildTree].calls == 1);
  CHECK(tt.prim[kConflictMis].calls == traced.iterations);
  CHECK(tt.prim[kAggregatePair].calls == tt.prim[kBroadcastBit].calls);
  CHECK(tt.total_ms() <= wall_ms + kSlackMs);
}

void corollary12_decorated_matches(const Graph& g, const ListInstance& lists, int threads) {
  const Corollary12Result plain = runtime::corollary12_coloring(g, lists, threads);

  runtime::EngineCorollary12Transports engine(g, threads);
  Corollary12Times ct;
  const auto t0 = Clock::now();
  TimedCorollary12Transports timed(engine, &ct, t0);
  const Corollary12Result traced = corollary12_run(g, lists, timed);
  const double wall_ms = ms_since(t0);

  CHECK(traced.colors == plain.colors);
  CHECK(same_metrics(traced.metrics, plain.metrics));
  CHECK(traced.decomposition.clusters.size() == plain.decomposition.clusters.size());
  CHECK(traced.decomposition.num_colors == plain.decomposition.num_colors);
  CHECK(lists.valid_solution(traced.colors));

  CHECK(ct.global.prim[kLinial].calls == 1);
  CHECK(ct.global.prim[kExchangeAlong].calls == traced.decomposition.num_colors);
  CHECK(ct.cluster.prim[kConflictMis].calls >=
        static_cast<std::int64_t>(traced.decomposition.clusters.size()));
  CHECK(ct.decomposition_ms > 0.0);
  // Coordinator layers partition (part of) the wall time; cluster layers
  // fit inside the worker time they ran in.
  CHECK(ct.decomposition_ms + ct.global.total_ms() + ct.class_wall_ms <= wall_ms + kSlackMs);
  CHECK(ct.cluster.total_ms() <= ct.cluster_busy_ms + kSlackMs);
  CHECK(ct.critical_ms <= ct.cluster_busy_ms + kSlackMs);
  CHECK(ct.critical_ms <= ct.class_wall_ms + kSlackMs);
}

void verify_rejects_bad_results() {
  Instance in;
  in.g = std::make_unique<Graph>(make_grid(3, 5));
  in.lists = std::make_unique<ListInstance>(ListInstance::delta_plus_one(*in.g));
  SolveResult good;
  good.colors = runtime::theorem11_coloring(*in.g, *in.lists, 1).colors;
  std::string why;
  CHECK(verify(in, good, &why));

  SolveResult clash = good;  // node 1 takes its neighbor 0's color
  clash.colors[1] = clash.colors[0];
  CHECK(!verify(in, clash, &why));

  SolveResult off_list = good;  // a color outside node 0's list {0..deg}
  off_list.colors[0] = 1000;
  CHECK(!verify(in, off_list, &why));

  SolveResult short_result = good;
  short_result.colors.pop_back();
  CHECK(!verify(in, short_result, &why));

  SolveResult threw;
  threw.error = "memory violation";
  CHECK(!verify(in, threw, &why));
  CHECK(why.find("memory violation") != std::string::npos);
}

void workloads_traced_match_untraced() {
  // The workloads' own traced entry points, on the MPC workload (small
  // enough for a test): same result, counters present.
  const Workload* w = find_workload("mpc-linear");
  CHECK(w != nullptr);
  const Instance in = w->make(3);
  const SolveResult plain = w->solve(in, 1);
  LayerFigures f;
  double wall_ms = 0.0;
  const SolveResult traced = w->traced(in, 1, &f, &wall_ms);
  std::string why;
  CHECK(verify(in, plain, &why));
  CHECK(traced.colors == plain.colors);
  CHECK(same_metrics(traced.metrics, plain.metrics));
  CHECK(f.at("mpc.derand_passes") > 0);
  CHECK(wall_ms > 0.0);
}

// A pinned interval runs on its one CPU, and afterwards the process may use
// every allowed CPU again: a mask left behind would confine the next
// multi-threaded solve, pool threads and all, to one vCPU.
void yardstick_pins_and_unpins() {
  const std::vector<int>& cpus = allowed_cpus();
  CHECK(!cpus.empty());
  const Yardstick yard;
  cpu_set_t inside;
  CPU_ZERO(&inside);
  const double index = yard.around(2, cpus.back(), [&] {
    CHECK(sched_getaffinity(0, sizeof inside, &inside) == 0);
  });
  CHECK(index > 0.0);
  CHECK(CPU_COUNT(&inside) == 1 && CPU_ISSET(cpus.back(), &inside));
  cpu_set_t after;
  CHECK(sched_getaffinity(0, sizeof after, &after) == 0);
  CHECK(CPU_COUNT(&after) == static_cast<int>(cpus.size()));
  CHECK(yard.around(2, -1, [] {}) > 0.0);
}

}  // namespace

int main() {
  for (std::uint64_t seed : {1, 2, 3}) {
    const Graph g = make_near_regular(300, 6, seed);
    if (!is_connected(g)) continue;
    const ListInstance lists = ListInstance::random_lists(g, 64, seed);
    for (int threads : {1, 3}) theorem11_decorated_matches(g, lists, threads);
  }
  {
    const Graph g = make_grid(4, 60);
    const ListInstance lists = ListInstance::delta_plus_one(g);
    theorem11_decorated_matches(g, lists, 2);
  }
  for (std::uint64_t seed : {4, 5}) {
    const Graph g = make_clustered(12, 10, 0.35, 10, seed);
    const ListInstance lists = ListInstance::delta_plus_one(g);
    for (int threads : {1, 4}) corollary12_decorated_matches(g, lists, threads);
  }
  verify_rejects_bad_results();
  workloads_traced_match_untraced();
  yardstick_pins_and_unpins();
  std::printf("perfbench selftest: %d checks passed\n", g_checks);
  return 0;
}
