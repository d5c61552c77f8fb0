// Shared derandomization NodePrograms: the engine-side building blocks of
// every seed-fixing pipeline (the derandomized MIS, the Theorem 1.1 list
// coloring and the Corollary 1.2 per-cluster runs, all over
// runtime::EngineColoringTransport) — BFS-tree construction, binding a
// network-decomposition cluster's tree, level-synchronous tree
// aggregation and broadcast, the one-round exchange along explicit target
// lists, and the color-class MIS.
//
// Each program is the NodeProgram form of one congest::Network primitive
// and charges the exact CONGEST costs of its reference implementation
// (congest::BfsTree, NetworkColoringTransport's exchange and cluster-tree
// loops, mis_by_color_classes): identical rounds, messages, bit totals
// and max message size — the property the conformance suite in
// tests/derand_channel_test.cpp and the parity suite in
// tests/runtime_engine_test.cpp enforce.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/decomposition/netdecomp.h"
#include "src/graph/graph.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

// A rooted tree in dense per-wave form: flat CSR arrays instead of
// vectors-of-vectors, so (a) the level-synchronous waves hand the engine
// per-level Roster views straight into `level_nodes` with zero per-phase
// work, (b) child iteration in the convergecast is a contiguous scan the
// hardware prefetches, and (c) a TreeData instance REBINDS to a new
// (cluster) tree touching only the new tree's nodes — the n-sized arrays
// are allocated once and never reset, because every consumer reads
// per-node entries only for nodes of the currently bound tree (rosters
// and child lists never lead outside it).
struct TreeData {
  NodeId root = 0;
  int depth = 0;
  std::int64_t num_tree_nodes = 0;

  // Per-node arrays (size n; only the bound tree's entries meaningful).
  std::vector<int> level;
  std::vector<NodeId> parent;
  std::vector<int> parent_nth;           // parent's index in v's adjacency
  std::vector<std::int64_t> child_off;   // v's children at children_flat[child_off[v]..)
  std::vector<std::int32_t> child_cnt;

  // Children CSR, ascending child id within each node.
  std::vector<NodeId> children_flat;
  std::vector<int> children_nth_flat;    // child's index in v's adjacency, aligned

  // Per-level rosters: level l = level_nodes[level_off[l], level_off[l+1]),
  // ascending ids within each level.
  std::vector<std::int64_t> level_off;   // depth + 2 entries
  std::vector<NodeId> level_nodes;

  Roster level_roster(int l) const {
    const std::int64_t b = level_off[l];
    return Roster::of(level_nodes.data() + b,
                      static_cast<std::size_t>(level_off[l + 1] - b));
  }

  // Rebind workspace (the ascending node list handed to
  // finalize_tree_positions); kept here so its capacity survives rebinds.
  std::vector<NodeId> sorted_scratch;
};

// Builds `out` by synchronous flooding from `root` on the engine's graph
// (must be connected), charging eccentricity(root) + 1 rounds and one
// send_all per node — exactly congest::BfsTree::build.
void build_tree_data(ParallelEngine& eng, NodeId root, TreeData* out);

// (Re)binds `out` to a cluster's associated tree: levels recomputed from
// the parent arrays (a parent always precedes its children in
// tree_nodes), rosters/CSR positions restricted to the tree's nodes so
// the level-synchronous waves skip the rest of the graph. Steiner nodes
// are tree nodes like any other. Depth mirrors the Network transport's
// bind_cluster: max(cluster.tree_depth, deepest level). Rebinding touches
// only O(cluster size log cluster size) work — the n-sized TreeData
// arrays are written only at the new tree's nodes and never reset (see
// TreeData), which is what makes one TreeData reusable across the
// thousands of clusters a decomposition produces. Charges nothing.
void cluster_tree_data(const Graph& g, const Cluster& cluster, TreeData* out);

// Fills the dispatch accelerators (per-level rosters, parent/children
// CSR positions) of a TreeData whose root/depth/level/parent are already
// set for every node in `nodes` (ascending ids, the full tree). Nodes
// outside the list get no roster slot and their per-node entries are
// left untouched (possibly stale from a previous bind — by design, see
// TreeData). Shared tail of the BFS (build_tree_data) and cluster-tree
// (cluster_tree_data) constructions.
void finalize_tree_positions(const Graph& g, TreeData* out, const std::vector<NodeId>& nodes);

// Reusable O(n) encode buffers for the aggregations below: owned by the
// transports so the per-seed-bit convergecasts of the Lemma 2.6 loop
// allocate nothing in the steady state.
struct AggregateScratch {
  std::vector<std::uint64_t> acc0, acc1;
};

// Level-synchronous convergecast of the saturating sum of Q32.32
// encodings over the tree (the engine form of congest::aggregate_fixed_sum
// + BfsTree::aggregate): depth rounds plus ceil(64/B)-1 charged pipelined
// rounds, one message per tree edge. When the grand total of the
// encodings fits std::uint64_t (checked once at encode time against an
// __int128 running total), the per-node sums run as plain uint64_t adds —
// bit-identical to the saturating adds, since non-negative addends can
// only saturate past the grand total.
std::uint64_t aggregate_fixed_sum(ParallelEngine& eng, const TreeData& tree,
                                  const std::vector<long double>& values,
                                  AggregateScratch* scratch = nullptr);

// Convergecast of the saturating sums of TWO Q32.32 encodings in ONE
// wave over the tree (the engine form of the Network transport's
// cluster-tree aggregate_pair):
// depth rounds plus ceil(128/B)-1 charged pipelined rounds, one
// min(64,B)-bit message per tree edge carrying the first word's first
// chunk — the second word rides the charged pipelined chunks, summed
// across the phase barrier. Only tree nodes contribute.
std::pair<std::uint64_t, std::uint64_t> aggregate_fixed_pair_sum(
    ParallelEngine& eng, const TreeData& tree, const std::vector<long double>& values0,
    const std::vector<long double>& values1, AggregateScratch* scratch = nullptr);

// Root-to-all broadcast of one `bits`-bit value over the tree (the engine
// form of BfsTree::broadcast): depth rounds plus charged pipelining, one
// message per tree edge. 1-bit broadcasts ride the engine's flag plane
// (same charging; the value is globally known to the caller, so receivers
// never read the payload).
void tree_broadcast(ParallelEngine& eng, const TreeData& tree, std::uint64_t value, int bits);

// One round of scatter along explicit per-node target lists (the alive
// conflict edges of a Lemma 2.1 phase): each sender v delivers the first
// bandwidth-sized chunk of payloads[v] to every u in targets[v]. Each
// targets[v] must be an ascending subset of v's adjacency. If `from` is
// non-null, (*from)[v] collects the ids v received from, ascending.
// Callers charge extra pipelined chunks via ParallelEngine::tick.
class AlongExchangeProgram final : public NodeProgram {
 public:
  AlongExchangeProgram(const Graph& g, const std::vector<std::vector<NodeId>>& targets,
                       const std::vector<char>& senders,
                       const std::vector<std::uint64_t>& payloads, int first_chunk_bits,
                       std::vector<std::vector<NodeId>>* from)
      : g_(&g), targets_(&targets), senders_(&senders), payloads_(&payloads),
        first_chunk_bits_(first_chunk_bits), from_(from) {
    mask_ = first_chunk_bits_ >= 64 ? ~std::uint64_t{0}
                                    : ((std::uint64_t{1} << first_chunk_bits_) - 1);
  }

  void init(NodeId v, Outbox& out) override;
  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override;
  bool done(std::int64_t rounds) override { return rounds == 1; }
  // Without a collection sink the delivery phase is a no-op for every
  // node: dispatch nobody.
  Roster roster(std::int64_t round) override;

 private:
  const Graph* g_;
  const std::vector<std::vector<NodeId>>* targets_;
  const std::vector<char>* senders_;
  const std::vector<std::uint64_t>* payloads_;
  int first_chunk_bits_;
  std::uint64_t mask_;
  std::vector<std::vector<NodeId>>* from_;
};

// MIS by iterating the color classes of a proper coloring (the engine
// form of dcolor::mis_by_color_classes): class c joins in phase c and
// announces with a 1-bit flag-plane message; num_colors rounds total.
// Phases are rostered: round r dispatches exactly class r plus the
// active neighbors of the previous round's joiners (the only possible
// receivers), computed on the coordinator into reusable scratch — total
// dispatch work O(n + m) over the whole run instead of
// O(num_colors * n).
class MisColorClassesProgram final : public NodeProgram {
 public:
  MisColorClassesProgram(const InducedSubgraph& active,
                         const std::vector<std::int64_t>& coloring, std::int64_t num_colors);

  void init(NodeId v, Outbox& out) override;
  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override;
  bool done(std::int64_t rounds) override { return rounds == num_colors_; }
  Roster roster(std::int64_t round) override;

  // Membership indicator after the run.
  std::vector<bool> in_mis() const;

 private:
  void join(NodeId v, Outbox& out);
  // Class c of the proper coloring: by_color_nodes[by_color_off[c]..).
  std::size_t class_begin(std::int64_t c) const {
    return static_cast<std::size_t>(by_color_off_[static_cast<std::size_t>(c)]);
  }
  std::size_t class_end(std::int64_t c) const {
    return static_cast<std::size_t>(by_color_off_[static_cast<std::size_t>(c) + 1]);
  }

  const InducedSubgraph* active_;
  const std::vector<std::int64_t>* coloring_;
  std::int64_t num_colors_;
  std::vector<char> in_mis_;
  std::vector<char> dominated_;
  std::vector<std::int64_t> by_color_off_;  // counting-sort CSR of active nodes
  std::vector<NodeId> by_color_nodes_;
  std::vector<NodeId> roster_scratch_;      // reserve(n): zero-alloc rosters
  std::vector<std::int64_t> seen_round_;    // roster dedupe stamps
};

}  // namespace dcolor::runtime
