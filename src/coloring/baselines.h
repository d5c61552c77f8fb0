// Baseline coloring algorithms for the comparison experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/list_instance.h"
#include "src/congest/metrics.h"
#include "src/graph/graph.h"

namespace dcolor {

// Sequential greedy list coloring (the trivial centralized baseline the
// paper's introduction mentions). Colors in id order; always succeeds on a
// (degree+1) instance.
std::vector<Color> greedy_list_coloring(const ListInstance& inst);

// The greedy finisher behind greedy_list_coloring and the clique and MPC
// one-machine stages: colors every node of g still kUncolored, in id
// order, with the first entry of its current list that no neighbor holds.
// Always succeeds when every such list is longer than the node's
// uncolored degree and holds no colored neighbor's color.
void greedy_color_uncolored(const Graph& g, const ListInstance& inst, std::vector<Color>& colors);

struct RandomizedColoringResult {
  std::vector<Color> colors;
  congest::Metrics metrics;
  int iterations = 0;
};

// Johansson-style randomized distributed list coloring [Joh99]: every
// uncolored node picks a uniform color from its (pruned) list; a node
// keeps the color if no neighbor picked the same one. O(log n) rounds
// w.h.p. The randomized process Theorem 1.1 derandomizes.
RandomizedColoringResult randomized_list_coloring(const Graph& g, ListInstance inst,
                                                  std::uint64_t seed);

// Kuhn–Wattenhofer style color reduction [KW06]: from a proper K-coloring,
// iteratively recolor the highest color class greedily (one class per
// round) down to Delta+1 colors. O(K) rounds — the classic slow-but-simple
// deterministic CONGEST baseline.
struct ColorReductionResult {
  std::vector<Color> colors;
  congest::Metrics metrics;
};
ColorReductionResult color_reduction_baseline(const Graph& g);

}  // namespace dcolor
