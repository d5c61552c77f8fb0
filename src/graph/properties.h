// Structural graph properties needed by experiments and validity checks.
#pragma once

#include <functional>
#include <vector>

#include "src/graph/graph.h"

namespace dcolor {

// BFS distances from `src`; unreachable nodes get -1.
std::vector<int> bfs_distances(const Graph& g, NodeId src);

// Exact diameter of the (assumed connected) graph; -1 if disconnected.
// O(n * m): fine at simulation scales.
int diameter(const Graph& g);

// 2-approximate diameter via double-sweep BFS (lower bound, exact on
// trees). Used where exact diameter is too slow.
int diameter_double_sweep(const Graph& g);

// Connected component id per node (ids are 0..k-1 in discovery order).
std::vector<int> connected_components(const Graph& g, int* num_components);

bool is_connected(const Graph& g);

// Per-component splitter for drivers that need a connected communication
// graph. Calls fn(sub, global) once per connected component, in component
// id order: `sub` is the component's graph with local ids, its node i
// being node global[i] of g (ascending). Returns false without calling
// fn when g has at most one component, so the caller runs on g itself,
// uncopied. O(n + m) over all components.
bool for_each_component(
    const Graph& g,
    const std::function<void(const Graph& sub, const std::vector<NodeId>& global)>& fn);

// Degeneracy (max over subgraphs of min degree) via peeling.
int degeneracy(const Graph& g);

// True iff `colors` is a proper coloring (adjacent nodes differ).
bool is_proper_coloring(const Graph& g, const std::vector<int>& colors);

}  // namespace dcolor
