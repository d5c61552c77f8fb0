// Rooted trees for the Lemma 2.6 seed-fixing waves, and the one kernel
// that both ColoringTransports run those waves through.
//
// Fixing one seed bit (Lemma 2.6) takes a convergecast of two sums and a
// broadcast of the chosen bit over a rooted tree: a BFS tree of the whole
// graph (Theorem 1.1, O(D) rounds per bit) or a network-decomposition
// cluster's associated tree (Corollary 1.2). In a wave, what level l
// sends depends only on what level l+1 sent, so the kernel computes a
// whole wave's result without running its rounds and charges its
// CONGEST cost in closed form (wave_cost). The convergecast's result is
// a saturating Q32.32 sum, which the kernel keeps incrementally
// (TreeFixedSum): a seed bit that moves only a few nodes' sums
// re-encodes only those nodes, in O(changed) rather than O(tree).
//
// A phase stops its waves once every coin is decided: each convergecast
// also carries the OR of every node's "free and tight" flag, which a node
// knows from its own threshold, its input colour and the bits broadcast
// so far, and each broadcast carries {bit, stop}. The first wave pair
// that finds the OR at 0 is the phase's last; its sums go unused. The
// flag and the stop bit are charged on every wave pair, whether or not
// it is the last (pair_wave_cost, and the 2-bit broadcast of
// runtime::BasicColoringTransport::broadcast_bit), so a phase that stops
// after its first decided bit j is charged min(j + 1, d) wave pairs of
// one cost, d its number of seed bits. The per-round NodeProgram form
// of both waves lives on in tests/tree_wave_test.cpp, which holds the
// kernel to it, full and incremental alike.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/graph.h"

namespace dcolor::congest {

// A rooted tree over some of the graph's nodes: a BFS tree flooded by
// runtime::build_tree_data (src/runtime/derand_program.h), or a cluster
// tree bound by bind_cluster_tree. `level` and `parent` have
// one entry per graph node, but only the tree's entries are meaningful: a
// rebind writes the new tree's entries and leaves the others stale, so
// one TreeData serves every cluster of a decomposition without clearing
// or reallocating its n-sized arrays. Readers reach nodes only through
// level_nodes, which never leads outside the bound tree, or test a node
// with contains() first.
struct TreeData {
  NodeId root = 0;
  int depth = 0;  // at least the deepest level; deeper levels are empty
  std::vector<int> level;
  std::vector<NodeId> parent;  // -1 at the root
  // Level l is level_nodes[level_off[l], level_off[l + 1]), ascending ids.
  std::vector<std::int64_t> level_off;  // depth + 2 entries
  std::vector<NodeId> level_nodes;
  // position[v]: v's index in level_nodes, for tree nodes; n entries.
  std::vector<NodeId> position;

  // Whether graph node v is in the bound tree. A stale position[v]
  // cannot pass: level_nodes holds only tree nodes.
  bool contains(NodeId v) const {
    const auto s = static_cast<std::size_t>(position[static_cast<std::size_t>(v)]);
    return s < level_nodes.size() && level_nodes[s] == v;
  }
};

// (Re)binds `out` to a cluster's associated tree, Steiner nodes
// included. Levels are recomputed from the parents (tree_nodes lists a
// parent before its children); depth is max(cluster.tree_depth, deepest
// level). Throws CongestViolation, leaving `out` untouched, when a tree
// parent is not adjacent to its child, so no wave can run over a
// non-edge, or unless cluster.root is the one parentless tree node.
// Writes only the new tree's entries. Charges nothing.
void bind_cluster_tree(const Graph& g, const Cluster& cluster, TreeData* out);

// Lists `nodes`, the whole tree with levels already set, by level in
// level_off / level_nodes (and their positions in `position`), and raises
// out->depth to the deepest level. The shared tail of the tree builders.
void index_tree_levels(std::span<const NodeId> nodes, TreeData* out);

// The convergecast of one sum, kept incrementally: the saturating sum of
// every tree node's value, Q32.32-encoded (to_fixed). A saturating sum of
// non-negative values is min(sum, 2^64 - 1) under any grouping, so it is
// bit for bit what the per-round wave, which folds each subtree into its
// parent, delivers to the root. The same identity lets the sum live as an
// exact 128-bit total of the encodings (at most 2^31 nodes below 2^64
// each), corrected node by node and saturated only when read.
class TreeFixedSum {
 public:
  // The full form: encodes every tree node's value. O(tree).
  std::uint64_t refresh(const TreeData& tree, const std::vector<long double>& values);
  // The incremental form: re-encodes the tree nodes listed in `changed`
  // (others, and repeats, are harmless) and returns what refresh would,
  // provided no other tree node's value moved since the last refresh or
  // update over this same tree. Falls back to refresh after invalidate()
  // or on a fresh object. O(changed). Builds with assertions check the
  // total against a full recompute.
  std::uint64_t update(const TreeData& tree, const std::vector<long double>& values,
                       std::span<const NodeId> changed);
  // Forgets the encodings; the owner calls it whenever it rebinds the tree.
  void invalidate() { valid_ = false; }

 private:
  std::vector<std::uint64_t> enc_;  // by position in tree.level_nodes
  unsigned __int128 total_ = 0;     // sum of enc_
  bool valid_ = false;
};

// The CONGEST cost of one wave that moves a `value_bits`-bit value over
// every tree edge, pipelined in bandwidth-sized chunks: depth +
// ceil(value_bits / bandwidth) - 1 rounds and one message per tree edge.
// Each message is min(value_bits, 64, bandwidth) bits, the first chunk of
// the first 64-bit word; the other chunks ride the pipelined rounds.
Metrics wave_cost(const TreeData& tree, int value_bits, int bandwidth);

// Which tree a transport has bound; each has its own aggregate_pair form.
enum class TreeForm : char { kUnbound, kBfs, kCluster };

// The charge of one pair aggregation (PairWave::aggregate) over a bound
// tree of the given form, the one formula for every seed bit: the two
// sums plus the 1-bit liveness OR, so a 129-bit wave (kCluster) or a
// 65-bit wave and one extra round (kBfs).
Metrics pair_wave_cost(const TreeData& tree, TreeForm form, int bandwidth);

// One Lemma 2.6 pair aggregation over a bound tree, as both
// ColoringTransports run it: a TreeFixedSum per quantized sum, and *cost
// set to the charge (pair_wave_cost), the same for either form of the
// call:
//  - kCluster: both sums quantized, with the liveness bit, in one
//    129-bit wave.
//  - kBfs: the second sum is an unquantized long double (summed over all
//    of values1, in index order) riding one extra charged round after a
//    65-bit wave (the first sum and the liveness bit). Its order of
//    additions cannot be kept incrementally, so it is a full pass in both
//    forms; only the first sum is incremental. The charge under-counts a
//    129-bit wave: ceil(65/B) rounds beyond the depth where a real one
//    costs ceil(129/B) - 1, so 2 instead of 3 per seed bit at B=40 and 6
//    instead of 10 at B=12. Closing the gap changes colours and rounds,
//    so it waits for a deliberate re-baseline.
// `changed` selects the form of the call: std::nullopt refreshes every
// tree node's sums, a list updates only those nodes (TreeFixedSum), with
// the same sums and charge provided only they moved since the last call
// over this tree; an empty list returns the previous call's sums at once
// (in the kBfs form that skips the pass over values1). The owner calls
// invalidate() whenever it rebinds the tree.
class PairWave {
 public:
  std::pair<long double, long double> aggregate(const TreeData& tree, TreeForm form,
                                                int bandwidth,
                                                const std::vector<long double>& values0,
                                                const std::vector<long double>& values1,
                                                std::optional<std::span<const NodeId>> changed,
                                                Metrics* cost);
  void invalidate() {
    sum0_.invalidate();
    sum1_.invalidate();
    last_.reset();
  }

 private:
  TreeFixedSum sum0_, sum1_;  // sum1_ is unused in the kBfs form
  std::optional<std::pair<long double, long double>> last_;  // the previous call's sums
};

// Fixed-point codec of the aggregated values. 32 fractional bits.
// to_fixed(x), x >= 0, is llroundl(x * 2^32) below 2^64 - 1 and ~0 from
// there on; on x87 extended long double it decodes the bits instead of
// calling llroundl, with the same result for every input.
std::uint64_t to_fixed(long double x);
long double from_fixed(std::uint64_t f);

}  // namespace dcolor::congest
