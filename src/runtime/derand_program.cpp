#include "src/runtime/derand_program.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "src/util/bits.h"

namespace dcolor::runtime {
namespace {

// Synchronous flooding, the NodeProgram form of congest::build_tree_data:
// a node joins the tree the round it first hears a joined neighbor
// (smallest sender id wins) and floods its own id once. Charges
// eccentricity(root) + 1 rounds, one send_all per node.
class BfsBuildProgram final : public NodeProgram {
 public:
  BfsBuildProgram(const Graph& g, NodeId root, congest::TreeData* out)
      : g_(&g), root_(root), out_(out) {
    out_->root = root;
    out_->depth = 0;
    out_->level.assign(g.num_nodes(), -1);
    out_->parent.assign(g.num_nodes(), -1);
    out_->level[root] = 0;
    id_bits_ = bit_width_of(static_cast<std::uint64_t>(g.num_nodes()));
    seen_round_.assign(static_cast<std::size_t>(g.num_nodes()), -1);
    frontier_.reserve(static_cast<std::size_t>(g.num_nodes()));
    next_.reserve(static_cast<std::size_t>(g.num_nodes()));
  }

  void init(NodeId v, Outbox& out) override {
    if (v != root_) return;
    out.send_all(static_cast<std::uint64_t>(v), id_bits_);
    progress_.store(true, std::memory_order_relaxed);
  }

  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override {
    if (out_->level[v] >= 0) return;
    NodeId best_parent = -1;
    in.for_each([&](NodeId, std::uint64_t payload) {
      const NodeId from = static_cast<NodeId>(payload);
      if (best_parent < 0 || from < best_parent) best_parent = from;
    });
    if (best_parent < 0) return;
    out_->level[v] = static_cast<int>(round);
    out_->parent[v] = best_parent;
    out.send_all(static_cast<std::uint64_t>(v), id_bits_);
    progress_.store(true, std::memory_order_relaxed);
  }

  bool done(std::int64_t) override { return !progress_.exchange(false); }

  // Init runs the root alone. Round r can only reach the unjoined
  // neighbours of round r-1's joiners (nobody else has a message), and
  // those joiners are the nodes of round r-1's roster at level r-1.
  Roster roster(std::int64_t round) override {
    if (round == 0) {
      frontier_.assign(1, root_);
      return Roster::of(frontier_);
    }
    next_.clear();
    for (const NodeId u : frontier_) {
      if (out_->level[u] != round - 1) continue;
      for (const NodeId w : g_->neighbors(u)) {
        if (out_->level[w] >= 0 || seen_round_[static_cast<std::size_t>(w)] == round) continue;
        seen_round_[static_cast<std::size_t>(w)] = round;
        next_.push_back(w);
      }
    }
    std::sort(next_.begin(), next_.end());
    frontier_.swap(next_);
    return Roster::of(frontier_);
  }

 private:
  const Graph* g_;
  NodeId root_;
  congest::TreeData* out_;
  int id_bits_ = 0;
  std::atomic<bool> progress_{false};
  // Roster scratch, reserve(n) so the per-round builds never allocate.
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::vector<std::int64_t> seen_round_;  // roster dedupe stamps
};

}  // namespace

void build_tree_data(ParallelEngine& eng, NodeId root, congest::TreeData* out) {
  BfsBuildProgram prog(eng.graph(), root, out);
  eng.run(prog);
  std::vector<NodeId> all(static_cast<std::size_t>(eng.graph().num_nodes()));
  std::iota(all.begin(), all.end(), NodeId{0});
  congest::index_tree_levels(all, out);
}

void AlongExchangeProgram::init(NodeId v, Outbox& out) {
  if (!(*senders_)[v]) return;
  // Two-pointer merge over the sorted adjacency: targets[v] is an
  // ascending subset of it, so each send is O(1) instead of the O(log
  // deg) edge lookup of Outbox::send. A target outside the adjacency is
  // a non-edge send and must throw exactly as the Network transport
  // does, not silently hit a neighboring slot.
  const auto nb = g_->neighbors(v);
  std::size_t j = 0;
  for (NodeId u : (*targets_)[v]) {
    while (j < nb.size() && nb[j] < u) ++j;
    if (j >= nb.size() || nb[j] != u) {
      throw congest::CongestViolation("exchange target is not a neighbor (send over non-edge)");
    }
    out.send_nth(static_cast<int>(j), (*payloads_)[v] & mask_, first_chunk_bits_);
    ++j;
  }
}

void AlongExchangeProgram::on_round(std::int64_t, NodeId v, const Inbox& in, Outbox&) {
  if (from_ == nullptr) return;
  auto& fv = (*from_)[v];
  fv.clear();
  in.for_each([&](NodeId from, std::uint64_t) { fv.push_back(from); });
}

Roster AlongExchangeProgram::roster(std::int64_t round) {
  if (round == 1 && from_ == nullptr) return Roster::none();
  return Roster::all();
}

MisColorClassesProgram::MisColorClassesProgram(const InducedSubgraph& active,
                                               const std::vector<std::int64_t>& coloring,
                                               std::int64_t num_colors)
    : active_(&active), coloring_(&coloring), num_colors_(num_colors) {
  const NodeId n = active.base().num_nodes();
  in_mis_.assign(n, 0);
  dominated_.assign(n, 0);
  // Counting-sort CSR of the active nodes by color, ascending ids within
  // a class; plus the roster scratch, reserved so the per-round roster
  // builds below never allocate.
  by_color_off_.assign(static_cast<std::size_t>(std::max<std::int64_t>(num_colors, 0)) + 1, 0);
  seen_round_.assign(static_cast<std::size_t>(n), -1);
  std::int64_t active_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (active.contains(v)) {
      ++by_color_off_[static_cast<std::size_t>(coloring[v]) + 1];
      ++active_count;
    }
  }
  for (std::size_t c = 1; c < by_color_off_.size(); ++c) by_color_off_[c] += by_color_off_[c - 1];
  by_color_nodes_.resize(static_cast<std::size_t>(active_count));
  std::vector<std::int64_t> cursor(by_color_off_.begin(), by_color_off_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (active.contains(v)) {
      by_color_nodes_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(coloring[v])]++)] =
          v;
    }
  }
  roster_scratch_.reserve(static_cast<std::size_t>(n));
}

void MisColorClassesProgram::join(NodeId v, Outbox& out) {
  in_mis_[v] = 1;
  dominated_[v] = 1;
  const auto nb = active_->base().neighbors(v);
  for (std::size_t j = 0; j < nb.size(); ++j) {
    if (active_->contains(nb[j])) out.send_flag_nth(static_cast<int>(j));
  }
}

void MisColorClassesProgram::init(NodeId v, Outbox& out) {
  if (num_colors_ > 0 && active_->contains(v) && (*coloring_)[v] == 0) join(v, out);
}

void MisColorClassesProgram::on_round(std::int64_t round, NodeId v, const Inbox& in,
                                      Outbox& out) {
  if (!active_->contains(v)) return;
  if (!in.empty()) dominated_[v] = 1;
  if ((*coloring_)[v] == round && !dominated_[v]) join(v, out);
}

Roster MisColorClassesProgram::roster(std::int64_t round) {
  if (num_colors_ == 0) return Roster::none();
  if (round == 0) {
    // Only class 0 can act in init.
    return Roster::of(by_color_nodes_.data() + class_begin(0),
                      class_end(0) - class_begin(0));
  }
  // Round r touches exactly class r (join candidates) plus the active
  // neighbors of round r-1's joiners (the only nodes with live inboxes);
  // everyone else provably stages nothing and changes nothing.
  roster_scratch_.clear();
  if (round < num_colors_) {
    for (std::size_t i = class_begin(round); i < class_end(round); ++i) {
      const NodeId v = by_color_nodes_[i];
      seen_round_[static_cast<std::size_t>(v)] = round;
      roster_scratch_.push_back(v);
    }
  }
  for (std::size_t i = class_begin(round - 1); i < class_end(round - 1); ++i) {
    const NodeId u = by_color_nodes_[i];
    if (!in_mis_[u]) continue;
    for (const NodeId w : active_->base().neighbors(u)) {
      if (!active_->contains(w)) continue;
      if (seen_round_[static_cast<std::size_t>(w)] == round) continue;
      seen_round_[static_cast<std::size_t>(w)] = round;
      roster_scratch_.push_back(w);
    }
  }
  std::sort(roster_scratch_.begin(), roster_scratch_.end());
  return Roster::of(roster_scratch_);
}

std::vector<bool> MisColorClassesProgram::in_mis() const {
  std::vector<bool> out(in_mis_.size());
  for (std::size_t v = 0; v < in_mis_.size(); ++v) out[v] = in_mis_[v] != 0;
  return out;
}

}  // namespace dcolor::runtime
