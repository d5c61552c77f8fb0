// Network decomposition with congestion (Definition 3.1) and a
// deterministic Rozhoň–Ghaffari-style construction (Theorem 3.1 substrate).
//
// An (alpha, beta)-decomposition with congestion kappa partitions V into
// clusters, each with an associated tree of G and a color in {1..alpha},
// such that (i) the tree contains the cluster (Steiner nodes allowed),
// (ii) trees have diameter <= beta, (iii) adjacent clusters get different
// colors, and (iv) every edge lies in at most kappa same-color trees.
//
// Construction (the ball-growing / label-bit scheme of [RG19]): phases
// cluster at least half the still-living vertices each (phase = color).
// Within a phase, vertices start as singleton clusters labeled by their
// O(log n)-bit ids; label bits are processed in order, and at bit j the
// clusters with bit 1 ("red") repeatedly absorb adjacent living vertices
// of bit-0 ("blue") clusters: a red cluster grows another BFS layer while
// it gains at least a 1/(2b) fraction of its size, otherwise it stops and
// the currently requesting vertices are deleted (deferred to the next
// phase). The standard analysis gives: adjacent surviving clusters share
// all label bits (hence are identical) => proper coloring of clusters;
// <= half the vertices deleted per phase => alpha = O(log n); growth
// multiplies cluster size by (1 + 1/(2b)) per layer => tree depth
// O(log^2 n); a vertex re-homes <= b times per phase => congestion
// O(log n). Round cost is charged per growth iteration (a constant number
// of CONGEST rounds each), matching the paper's accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace dcolor {

struct Cluster {
  int color = 0;                  // 0-based color class (phase index)
  // The partition class, in ascending id order (make_cluster_graph and
  // color_cluster number members in this order without re-sorting).
  std::vector<NodeId> members;
  NodeId root = -1;               // origin singleton
  // Growth tree: for every node that ever belonged to the cluster, its
  // parent edge (parent[v], v) is an edge of G; root has parent -1.
  // Nodes present here but absent from `members` are Steiner nodes.
  // Listed in join order: the root first, every parent before its child,
  // and each node once. A node that leaves a cluster during a phase never
  // rejoins it (decompose() carries the argument), so no node joins one
  // tree twice.
  std::vector<NodeId> tree_nodes;
  std::vector<NodeId> tree_parent;  // parallel to tree_nodes
  int tree_depth = 0;
};

struct NetworkDecomposition {
  std::vector<Cluster> clusters;
  std::vector<int> cluster_of;  // node -> cluster index
  int num_colors = 0;           // alpha
  std::int64_t rounds_charged = 0;

  int max_tree_depth() const;  // <= beta
  int max_congestion() const;  // kappa (per color, per edge)
};

// Deterministic decomposition of a (possibly disconnected) graph.
NetworkDecomposition decompose(const Graph& g);

// Validates Definition 3.1: partition, tree containment, tree edges are
// G-edges, adjacent clusters differ in color; and the shapes the rest of
// the repo relies on: ascending members, and trees that list each node
// once, have the root as their only parentless node and list every
// parent before its child. O(n + m) plus one has_edge lookup per tree
// edge. Returns false + reason.
bool validate_decomposition(const Graph& g, const NetworkDecomposition& d, std::string* why);

}  // namespace dcolor
