// Shared helpers for the scenario translation units.
#pragma once

#include <cstdint>
#include <vector>

#include "src/benchkit/scenario.h"
#include "src/benchkit/verify.h"
#include "src/coloring/partial_coloring.h"
#include "src/coloring/theorem11.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/runtime/coloring_transport.h"
#include "src/runtime/linial_program.h"

namespace dcolor::bench_scenarios {

// A connected G(n,p) sample: scans seeds upward from `seed0` until the
// sample is connected (deterministic given seed0). Scenarios whose
// workload aggregates over one BFS tree rooted at node 0 need the whole
// graph reachable.
inline Graph connected_gnp(NodeId n, double avg_deg, std::uint64_t seed0) {
  const double p = avg_deg / static_cast<double>(n);
  for (std::uint64_t s = seed0;; ++s) {
    Graph g = make_gnp(n, p, s);
    if (is_connected(g)) return g;
  }
}

struct OneEighthRun {
  benchkit::Outcome outcome;
  PartialColoringStats stats;
};

// One full Lemma 2.1 execution (Linial input coloring, BFS aggregation
// tree at node 0, one color_one_eighth invocation) with the shared
// verification: partial coloring proper, colors drawn from the ORIGINAL
// random lists, and >= 1/8 of the active nodes colored. Used by the
// partial-coloring, MIS-avoidance, and potential-trace scenarios (the
// last one ANDs its extra budget check into outcome.verified).
inline OneEighthRun run_one_eighth(const Graph& g, std::uint64_t list_seed, bool avoid_mis,
                                   std::uint64_t seed) {
  auto inst = ListInstance::random_lists(g, 4 * (g.max_degree() + 1), list_seed);
  congest::Network net(g);
  InducedSubgraph active(g, std::vector<bool>(g.num_nodes(), true));
  const LinialResult lin = runtime::linial_coloring(net, active);
  std::vector<Color> colors(g.num_nodes(), kUncolored);
  PartialColoringOptions opts;
  opts.avoid_mis = avoid_mis;
  OneEighthRun run;
  runtime::NetworkColoringTransport t(net);
  t.build_tree(0);
  run.stats = color_one_eighth(t, active, inst, colors, lin.coloring, lin.num_colors, opts);

  benchkit::Outcome& o = run.outcome;
  o.n = g.num_nodes();
  o.m = g.num_edges();
  o.seed = seed;
  o.metrics = net.metrics();
  o.checksum = benchkit::checksum_values(colors);

  bool from_lists = true;
  const ListInstance pristine =
      ListInstance::random_lists(g, 4 * (g.max_degree() + 1), list_seed);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (colors[v] == kUncolored) continue;
    bool found = false;
    for (Color cand : pristine.list(v)) found = found || cand == colors[v];
    from_lists = from_lists && found;
  }
  o.verified = benchkit::proper_partial_coloring(g, colors) && from_lists &&
               8 * run.stats.newly_colored >= run.stats.active_before;
  return run;
}

}  // namespace dcolor::bench_scenarios
