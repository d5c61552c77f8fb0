#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "perfbench/timed_transport.h"
#include "src/coloring/theorem11.h"
#include "src/decomposition/corollary12.h"
#include "src/graph/generators.h"
#include "src/mpc/mpc_coloring.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/theorem11_program.h"

namespace perfbench {
namespace {

using namespace dcolor;
using Clock = std::chrono::steady_clock;

Instance instance_of(Graph g, ListInstance (*lists)(const Graph&, std::uint64_t),
                     std::uint64_t seed) {
  Instance in;
  in.g = std::make_unique<Graph>(std::move(g));
  in.lists = std::make_unique<ListInstance>(lists(*in.g, seed));
  return in;
}

ListInstance delta_plus_one_lists(const Graph& g, std::uint64_t) {
  return ListInstance::delta_plus_one(g);
}

ListInstance random_lists_1024(const Graph& g, std::uint64_t seed) {
  return ListInstance::random_lists(g, 1024, seed);
}

ListInstance random_lists_256(const Graph& g, std::uint64_t seed) {
  return ListInstance::random_lists(g, 256, seed);
}

// ------------------------------------------------------------------ inputs

Instance make_nearreg(std::uint64_t seed) {
  return instance_of(make_near_regular(4096, 8, seed), random_lists_1024, seed);
}

// The grid and its lists do not depend on the seed: the workload exists
// for its diameter, which a seeded family would not pin. 4 x 1024 rather
// than 4 x 4096 so that a run holds about fifty solves instead of eight:
// single solves on a shared VM scatter by a third, and the diameter
// (1026) still dwarfs log n.
Instance make_longpath(std::uint64_t seed) {
  return instance_of(make_grid(4, 1024), delta_plus_one_lists, seed);
}

// Pinned, lists included (as dcolor-bench pins its clustered family):
// with a seeded topology the decomposition, and with it rounds and solve
// time, swings by a third from seed to seed, and seeded lists alone move
// rounds by up to a quarter (the slowest cluster of a class sets them).
// Few backbone edges keep the decomposition from growing one giant
// cluster: 94 clusters in 2 classes, the largest 257 nodes, so no single
// cluster sets the class wall time (README.md compares the candidates).
Instance make_clusters(std::uint64_t) {
  return instance_of(make_clustered(128, 24, 0.35, 16, /*seed=*/1), random_lists_256, 1);
}

// Pinned like the grid: at n = 128 one seed to the next moved rounds by
// 8% and solve time by 11%, and seeded lists make the residual instance
// fit on one machine early for some seeds (half the rounds).
Instance make_mpc(std::uint64_t seed) {
  return instance_of(make_near_regular(128, 8, /*seed=*/1), delta_plus_one_lists, seed);
}

// ---------------------------------------------------------------- helpers

// Runs `body` and turns an exception into SolveResult::error, so a
// throwing solve is counted as failed instead of ending the run.
template <typename F>
SolveResult guarded(F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    SolveResult r;
    r.error = e.what();
    return r;
  }
}

SolveResult result_of(std::vector<Color> colors, const congest::Metrics& m) {
  SolveResult r;
  r.colors = std::move(colors);
  r.metrics = m;
  return r;
}

// Per-primitive figures plus the coloring layer's self time. `self_ms`
// is everything the timed layers do not cover; `thread_ms` is the total
// it is a share of (wall time, plus worker time on Corollary 1.2).
void put_layers(const TransportTimes& tt, double self_ms, double thread_ms, double init_ms,
                double wall_ms, LayerFigures* out) {
  LayerFigures& f = *out;
  for (int p = 0; p < kTick; ++p) {
    const std::string stem = std::string("runtime.") + prim_name(static_cast<Prim>(p));
    f[stem + ".ms"] = tt.prim[p].ms;
    f[stem + ".calls"] = static_cast<double>(tt.prim[p].calls);
    f[stem + ".rounds"] = static_cast<double>(tt.prim[p].rounds);
  }
  const PrimStats& agg = tt.prim[kAggregatePair];
  const PrimStats& bc = tt.prim[kBroadcastBit];
  const std::int64_t channel_rounds = agg.rounds + bc.rounds;
  f["runtime.ns_per_round"] =
      channel_rounds > 0 ? (agg.ms + bc.ms) * 1e6 / static_cast<double>(channel_rounds) : 0.0;
  f["runtime.transport_init_ms"] = init_ms;
  f["coloring.self_ms"] = self_ms;
  f["coloring.self_share"] = thread_ms > 0.0 ? self_ms / thread_ms : 0.0;
  f["bench.traced_solve_ms"] = wall_ms;
}

// --------------------------------------------------------- Theorem 1.1

SolveResult solve_t11(const Instance& in, int threads) {
  return guarded([&] {
    Theorem11Result res = runtime::theorem11_coloring(*in.g, *in.lists, threads);
    return result_of(std::move(res.colors), res.metrics);
  });
}

SolveResult traced_t11(const Instance& in, int threads, LayerFigures* layers, double* wall_ms) {
  return guarded([&] {
    const auto t0 = Clock::now();
    runtime::EngineColoringTransport engine(*in.g, threads);
    const double init_ms = ms_since(t0);
    TransportTimes tt;
    TimedColoringTransport timed(engine, &tt);
    Theorem11Result res = theorem11_run(timed, *in.lists);
    *wall_ms = ms_since(t0);

    put_layers(tt, *wall_ms - init_ms - tt.total_ms(), *wall_ms, init_ms, *wall_ms, layers);
    std::int64_t phases = 0;
    std::int64_t newly = 0;
    std::int64_t active = 0;
    for (const PartialColoringStats& st : res.per_iteration) {
      phases += st.phases;
      newly += st.newly_colored;
      active += st.active_before;
    }
    LayerFigures& f = *layers;
    f["coloring.iterations"] = res.iterations;
    f["coloring.phases"] = static_cast<double>(phases);
    f["coloring.colored_per_iteration"] =
        active > 0 ? static_cast<double>(newly) / static_cast<double>(active) : 0.0;
    return result_of(std::move(res.colors), res.metrics);
  });
}

// --------------------------------------------------------- Corollary 1.2

SolveResult solve_c12(const Instance& in, int threads) {
  return guarded([&] {
    Corollary12Result res = runtime::corollary12_coloring(*in.g, *in.lists, threads);
    return result_of(std::move(res.colors), res.metrics);
  });
}

SolveResult traced_c12(const Instance& in, int threads, LayerFigures* layers, double* wall_ms) {
  return guarded([&] {
    const auto t0 = Clock::now();
    runtime::EngineCorollary12Transports engine(*in.g, threads);
    const double init_ms = ms_since(t0);
    Corollary12Times ct;
    TimedCorollary12Transports timed(engine, &ct, Clock::now());
    Corollary12Result res = corollary12_run(*in.g, *in.lists, timed);
    *wall_ms = ms_since(t0);

    TransportTimes all = ct.global;
    all.add(ct.cluster);
    // Coordinator time outside decomposition, global transport calls and
    // cluster classes, plus worker time outside cluster transport calls.
    const double self_ms = (*wall_ms - init_ms - ct.decomposition_ms - ct.global.total_ms() -
                            ct.class_wall_ms) +
                           (ct.cluster_busy_ms - ct.cluster.total_ms());
    const double thread_ms = *wall_ms - ct.class_wall_ms + ct.cluster_busy_ms;
    put_layers(all, self_ms, thread_ms, init_ms, *wall_ms, layers);

    LayerFigures& f = *layers;
    // Every Lemma 2.1 iteration ends in exactly one conflict MIS.
    const std::int64_t iterations = ct.cluster.prim[kConflictMis].calls;
    f["coloring.iterations"] = static_cast<double>(iterations);
    f["coloring.phases"] = static_cast<double>(iterations * in.lists->color_bits());
    f["runtime.cluster_class.ms"] = ct.class_wall_ms;
    f["runtime.cluster_work.busy_ms"] = ct.cluster_busy_ms;
    f["runtime.cluster_class.parallelism"] =
        ct.class_wall_ms > 0.0 ? ct.cluster_busy_ms / ct.class_wall_ms : 0.0;
    f["runtime.cluster_work.critical_ms"] = ct.critical_ms;
    const NetworkDecomposition& d = res.decomposition;
    std::size_t largest = 0;
    for (const Cluster& c : d.clusters) largest = std::max(largest, c.members.size());
    f["decomposition.self_ms"] = ct.decomposition_ms;
    f["decomposition.clusters"] = static_cast<double>(d.clusters.size());
    f["decomposition.classes"] = d.num_colors;
    f["decomposition.largest_cluster"] = static_cast<double>(largest);
    return result_of(std::move(res.colors), res.metrics);
  });
}

// ------------------------------------------------------------ Theorem 1.4

congest::Metrics mpc_costs(const mpc::MpcMetrics& m) {
  congest::Metrics c;
  c.rounds = m.rounds;
  c.messages = m.words_communicated;
  c.total_bits = 64 * m.words_communicated;
  return c;
}

SolveResult solve_mpc(const Instance& in, int) {
  return guarded([&] {
    mpc::MpcColoringResult res = mpc::mpc_list_coloring_linear(*in.g, *in.lists);
    return result_of(std::move(res.colors), mpc_costs(res.metrics));
  });
}

// No transport interface to decorate: the traced solve is the plain solve
// plus the algorithm's own counters (splitting its time needs probes
// inside the library).
SolveResult traced_mpc(const Instance& in, int, LayerFigures* layers, double* wall_ms) {
  return guarded([&] {
    const auto t0 = Clock::now();
    mpc::MpcColoringResult res = mpc::mpc_list_coloring_linear(*in.g, *in.lists);
    *wall_ms = ms_since(t0);
    LayerFigures& f = *layers;
    f["bench.traced_solve_ms"] = *wall_ms;
    f["mpc.derand_passes"] = res.derand_passes;
    f["mpc.commit_cycles"] = res.commit_cycles;
    f["mpc.num_machines"] = res.num_machines;
    f["mpc.max_round_load"] = static_cast<double>(res.metrics.max_round_load);
    f["mpc.ms_per_derand_pass"] = res.derand_passes > 0 ? *wall_ms / res.derand_passes : 0.0;
    return result_of(std::move(res.colors), mpc_costs(res.metrics));
  });
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"t11-nearreg", 4, true, make_nearreg, solve_t11, traced_t11},
      {"t11-longpath", 4, true, make_longpath, solve_t11, traced_t11},
      {"c12-clusters", 4, false, make_clusters, solve_c12, traced_c12},
      {"mpc-linear", 1, false, make_mpc, solve_mpc, traced_mpc},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool verify(const Instance& in, const SolveResult& r, std::string* why) {
  if (!r.error.empty()) {
    *why = "solve threw: " + r.error;
    return false;
  }
  if (r.colors.size() != static_cast<std::size_t>(in.g->num_nodes())) {
    *why = "coloring has the wrong size";
    return false;
  }
  if (!in.lists->valid_solution(r.colors)) {
    *why = "not a proper coloring from the original lists";
    return false;
  }
  return true;
}

bool same_metrics(const congest::Metrics& a, const congest::Metrics& b) {
  return a.rounds == b.rounds && a.messages == b.messages && a.total_bits == b.total_bits &&
         a.max_message_bits == b.max_message_bits;
}

}  // namespace perfbench
