// Rooted trees for the Lemma 2.6 seed-fixing waves, and the one kernel
// that both ColoringTransports run those waves through.
//
// Fixing one seed bit (Lemma 2.6) takes a convergecast of two sums and a
// broadcast of the chosen bit over a rooted tree: a BFS tree of the whole
// graph (Theorem 1.1, O(D) rounds per bit) or a network-decomposition
// cluster's associated tree (Corollary 1.2). In a wave, what level l
// sends depends only on what level l+1 sent, so the kernel computes a
// whole wave in one sequential sweep over the levels and charges its
// CONGEST cost in closed form (wave_cost). The per-round NodeProgram form
// of both waves lives on in tests/tree_wave_test.cpp, which holds the
// kernel to it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/graph.h"

namespace dcolor::congest {

// A rooted tree over some of the graph's nodes. `level` and `parent` have
// one entry per graph node, but only the tree's entries are meaningful: a
// rebind writes the new tree's entries and leaves the others stale, so
// one TreeData serves every cluster of a decomposition without clearing
// or reallocating its n-sized arrays. Readers reach nodes only through
// level_nodes, which never leads outside the bound tree.
struct TreeData {
  NodeId root = 0;
  int depth = 0;  // at least the deepest level; deeper levels are empty
  std::vector<int> level;
  std::vector<NodeId> parent;  // -1 at the root
  // Level l is level_nodes[level_off[l], level_off[l + 1]), ascending ids.
  std::vector<std::int64_t> level_off;  // depth + 2 entries
  std::vector<NodeId> level_nodes;
};

// Floods a BFS tree from `root` over the network's graph, which must be
// connected: a node joins the round it first hears a joined neighbour
// (smallest sender id wins) and floods its own id once. Charges
// eccentricity(root) + 1 rounds, one send_all per node.
void build_tree_data(Network& net, NodeId root, TreeData* out);

// (Re)binds `out` to a cluster's associated tree, Steiner nodes
// included. Levels are recomputed from the parents (tree_nodes lists a
// parent before its children); depth is max(cluster.tree_depth, deepest
// level). Throws CongestViolation, leaving `out` untouched, when a tree
// parent is not adjacent to its child, so no wave can run over a
// non-edge, or unless cluster.root is the one parentless tree node.
// Writes only the new tree's entries. Charges nothing.
void bind_cluster_tree(const Graph& g, const Cluster& cluster, TreeData* out);

// Lists `nodes`, the whole tree with levels already set, by level in
// level_off / level_nodes, and raises out->depth to the deepest level.
// The shared tail of the tree builders.
void index_tree_levels(std::span<const NodeId> nodes, TreeData* out);

// The convergecast of one sum: encodes every tree node's value (Q32.32,
// to_fixed) into acc, then folds each level into the parents, deepest
// level first, with saturating adds. Returns the root's sum. Saturating
// addition of non-negative values is order-independent, so this is bit
// for bit what the per-round wave delivers to the root. `acc` is per-node
// scratch the caller owns, so the steady state allocates nothing.
std::uint64_t tree_fixed_sum(const TreeData& tree, const std::vector<long double>& values,
                             std::vector<std::uint64_t>* acc);

// The CONGEST cost of one wave that moves a `value_bits`-bit value over
// every tree edge, pipelined in bandwidth-sized chunks: depth +
// ceil(value_bits / bandwidth) - 1 rounds and one message per tree edge.
// Each message is min(value_bits, 64, bandwidth) bits, the first chunk of
// the first 64-bit word; the other chunks ride the pipelined rounds.
Metrics wave_cost(const TreeData& tree, int value_bits, int bandwidth);

// Which tree a transport has bound; each has its own aggregate_pair form.
enum class TreeForm : char { kUnbound, kBfs, kCluster };

// One Lemma 2.6 pair aggregation over a bound tree, as both
// ColoringTransports run it: tree_fixed_sum per quantized sum, and *cost
// set to the charge:
//  - kCluster: both sums quantized in one 128-bit wave.
//  - kBfs: the second sum is an unquantized long double (summed over all
//    of values1, in index order) riding one extra charged round after a
//    64-bit wave. This under-charges a 128-bit wave: ceil(64/B) rounds
//    beyond the depth where a real one costs ceil(128/B) - 1, so 2
//    instead of 3 per seed bit at B=40 and 6 instead of 10 at B=12.
//    Closing the gap changes colours and rounds, so it waits for a
//    deliberate re-baseline.
std::pair<long double, long double> aggregate_pair_wave(const TreeData& tree, TreeForm form,
                                                        int bandwidth,
                                                        const std::vector<long double>& values0,
                                                        const std::vector<long double>& values1,
                                                        std::vector<std::uint64_t>* acc,
                                                        Metrics* cost);

// Fixed-point codec of the aggregated values. 32 fractional bits.
std::uint64_t to_fixed(long double x);
long double from_fixed(std::uint64_t f);

}  // namespace dcolor::congest
