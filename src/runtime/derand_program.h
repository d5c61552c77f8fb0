// The derandomization building blocks of every seed-fixing pipeline (the
// derandomized MIS, the Theorem 1.1 list coloring and the Corollary 1.2
// per-cluster runs): the BFS-tree flood, the one-round exchange along
// explicit target lists, and the color-class MIS. Each is one
// NodeProgram, and both executors run it: congest::Network through
// runtime::run, and the ParallelEngine. The Lemma 2.6 tree waves are not
// programs: the transports run them through the sequential kernel in
// src/congest/tree.h.
//
// The adapters below are templates over the executor, explicitly
// instantiated for congest::Network and ParallelEngine. The golden pins
// in tests/network_primitive_golden_test.cpp fix what the Network runs,
// and the parity suites hold the engine to identical results, rounds,
// messages, bit totals and max message size.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/congest/tree.h"
#include "src/graph/graph.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

// Builds `out` by synchronous flooding from `root` on the executor's
// graph, which must be connected: a node joins the round it first hears
// a joined neighbour (smallest sender id wins) and floods its own id
// once. Charges eccentricity(root) + 1 rounds, one send_all per node.
// Throws std::invalid_argument naming an unreached node, before indexing
// the tree, when the graph is not connected.
template <typename Exec>
void build_tree_data(Exec& exec, NodeId root, congest::TreeData* out);

// One round of scatter along explicit per-node target lists (the alive
// conflict edges of a Lemma 2.1 phase): each sender v delivers the first
// bandwidth-sized chunk of payloads[v] to every u in targets[v]. Each
// targets[v] must be an ascending subset of v's adjacency. If `from` is
// non-null, (*from)[v] collects the ids v received from, ascending.
// Callers charge extra pipelined chunks with the executor's tick.
// `roster_scratch` holds the round-0 roster (the senders); reserve(n) it
// once so repeated exchanges never allocate.
class AlongExchangeProgram final : public NodeProgram {
 public:
  AlongExchangeProgram(const Graph& g, const std::vector<std::vector<NodeId>>& targets,
                       const std::vector<char>& senders,
                       const std::vector<std::uint64_t>& payloads, int first_chunk_bits,
                       std::vector<std::vector<NodeId>>* from,
                       std::vector<NodeId>* roster_scratch)
      : g_(&g), targets_(&targets), senders_(&senders), payloads_(&payloads),
        first_chunk_bits_(first_chunk_bits), from_(from), roster_scratch_(roster_scratch) {
    mask_ = first_chunk_bits_ >= 64 ? ~std::uint64_t{0}
                                    : ((std::uint64_t{1} << first_chunk_bits_) - 1);
  }

  void init(NodeId v, Outbox& out) override;
  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override;
  bool done(std::int64_t rounds) override { return rounds == 1; }
  // Init dispatches only the senders. The delivery phase dispatches
  // everyone when there is a collection sink (each (*from)[v] is
  // cleared) and nobody otherwise.
  Roster roster(std::int64_t round) override;

 private:
  const Graph* g_;
  const std::vector<std::vector<NodeId>>* targets_;
  const std::vector<char>* senders_;
  const std::vector<std::uint64_t>* payloads_;
  int first_chunk_bits_;
  std::uint64_t mask_;
  std::vector<std::vector<NodeId>>* from_;
  std::vector<NodeId>* roster_scratch_;
};

// MIS by iterating the color classes of a proper coloring: class c joins
// in phase c and announces with a 1-bit message to each active neighbor;
// num_colors rounds total.
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

// Runs MisColorClassesProgram on `exec`: the MIS of the subgraph `active`
// from `coloring`, proper on it with colors in [num_colors].
template <typename Exec>
std::vector<bool> mis_by_color_classes(Exec& exec, const InducedSubgraph& active,
                                       const std::vector<std::int64_t>& coloring,
                                       std::int64_t num_colors);

}  // namespace dcolor::runtime
