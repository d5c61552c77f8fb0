// Theorem 1.1: deterministic (degree+1)-list coloring in
// O(D * logn * logC * (logDelta + loglogC)) CONGEST rounds.
//
// Pipeline: Linial's algorithm computes an O(Delta^2 polylog Delta) input
// coloring in O(log* n) rounds, then Lemma 2.1 (color_one_eighth) runs for
// O(log n) iterations, each coloring >= 1/8 of the remaining nodes; after
// every iteration uncolored nodes prune newly taken colors from their
// lists, so the residual instance stays a valid (degree+1) instance.
//
// The driver is written once over the ColoringTransport abstraction:
// theorem11_solve runs it on runtime::NetworkColoringTransport, the one
// transport implementation on the sequential congest::Network;
// runtime::theorem11_coloring (src/runtime/theorem11_program.h) runs the
// identical call sequence on the ParallelEngine with bit-identical
// colors, iteration counts, per-iteration stats, and Metrics.
#pragma once

#include <functional>
#include <vector>

#include "src/coloring/list_instance.h"
#include "src/coloring/partial_coloring.h"
#include "src/congest/network.h"

namespace dcolor {

struct Theorem11Result {
  std::vector<Color> colors;
  int iterations = 0;                       // Lemma 2.1 invocations
  std::int64_t input_colors = 0;            // K from Linial
  congest::Metrics metrics;                 // honest CONGEST accounting
  std::vector<PartialColoringStats> per_iteration;
};

// Colors every node of `active` by iterating Lemma 2.1 until none remain
// (the O(log n)-iteration loop of Theorem 1.1), over an arbitrary
// transport. This is the entry point Corollary 1.2 reuses per
// network-decomposition cluster.
// Returns the number of Lemma 2.1 iterations executed. Throws
// std::logic_error when an iteration colors no node (the loop would not
// terminate).
int list_color_subset(ColoringTransport& transport, InducedSubgraph& active,
                      ListInstance& inst, std::vector<Color>& colors,
                      const std::vector<std::int64_t>& input_coloring, std::int64_t K,
                      const PartialColoringOptions& opts,
                      std::vector<PartialColoringStats>* stats = nullptr);

// The full Theorem 1.1 pipeline (Linial input coloring, aggregation tree
// at node 0, the Lemma 2.1 loop) over any transport. The transport's
// graph must be connected (build_tree spans it).
Theorem11Result theorem11_run(ColoringTransport& transport, ListInstance inst,
                              const PartialColoringOptions& opts = {});

// Solves the instance completely on the sequential reference transport.
// The graph must be connected (the BFS aggregation tree spans it); use
// solve_per_component for general graphs.
Theorem11Result theorem11_solve(const Graph& g, ListInstance inst,
                                const PartialColoringOptions& opts = {});

// Per-component driver shared by the Network and engine drivers: builds
// each connected component's graph (for_each_component) and instance with
// local ids, solves it with `solve_connected`, and merges (components run
// in parallel — rounds and iterations are maxima, traffic adds up).
Theorem11Result theorem11_solve_components(
    const Graph& g, ListInstance inst,
    const std::function<Theorem11Result(const Graph&, ListInstance)>& solve_connected);

// Runs Theorem 1.1 independently on every connected component (the paper's
// remark: D becomes the maximum component diameter).
Theorem11Result theorem11_solve_per_component(const Graph& g, ListInstance inst,
                                              const PartialColoringOptions& opts = {});

}  // namespace dcolor
