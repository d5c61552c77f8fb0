// Shared derandomization NodePrograms: the engine-side building blocks of
// every seed-fixing pipeline (the derandomized MIS, the Theorem 1.1 list
// coloring and the Corollary 1.2 per-cluster runs, all over
// runtime::EngineColoringTransport) — the BFS-tree flood, the one-round
// exchange along explicit target lists, and the color-class MIS. The
// Lemma 2.6 tree waves are not programs: both transports run them through
// the sequential kernel in src/congest/tree.h.
//
// Each program is the NodeProgram form of one congest::Network primitive
// and charges the exact CONGEST costs of its reference implementation
// (congest::build_tree_data, NetworkColoringTransport's exchange,
// mis_by_color_classes): identical rounds, messages, bit totals and max
// message size — the property the conformance suite in
// tests/derand_channel_test.cpp and the parity suite in
// tests/runtime_engine_test.cpp enforce.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/congest/tree.h"
#include "src/graph/graph.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

// Builds `out` by synchronous flooding from `root` on the engine's graph
// (must be connected), charging eccentricity(root) + 1 rounds and one
// send_all per node — exactly the Network flood congest::build_tree_data.
void build_tree_data(ParallelEngine& eng, NodeId root, congest::TreeData* out);

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
