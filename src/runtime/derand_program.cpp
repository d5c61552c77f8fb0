#include "src/runtime/derand_program.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>

#include "src/congest/bfs_tree.h"  // to_fixed/from_fixed codec
#include "src/util/bits.h"

namespace dcolor::runtime {
namespace {

// Synchronous flooding, the NodeProgram form of congest::BfsTree::build:
// a node joins the tree the round it first hears a joined neighbor
// (smallest sender id wins) and floods its own id once. Charges
// eccentricity(root) + 1 rounds, one send_all per node.
class BfsBuildProgram final : public NodeProgram {
 public:
  BfsBuildProgram(const Graph& g, NodeId root, TreeData* out) : g_(&g), root_(root), out_(out) {
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
  TreeData* out_;
  int id_bits_ = 0;
  std::atomic<bool> progress_{false};
  // Roster scratch, reserve(n) so the per-round builds never allocate.
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::vector<std::int64_t> seen_round_;  // roster dedupe stamps
};

// Level-synchronous convergecast (the NodeProgram form of
// congest::BfsTree::aggregate): in phase r the nodes at level depth-r
// combine their children's K saturating accumulators and forward toward
// the root. Only the first accumulator's first bandwidth-sized chunk
// travels through the simulator — the parent reads the child's full
// accumulators across the phase barrier (a contiguous children-CSR scan;
// the staged messages stay for CONGEST accounting and contract checks),
// and every further word/chunk is charged by the caller via tick —
// exactly the accounting the Network implementations use
// (BfsTree::aggregate at K=1, the cluster-tree aggregate_pair at K=2).
// `plain_sums` (see aggregate_fixed_sum) swaps the saturating adds for
// plain uint64_t adds when the encode-time overflow bound proved them
// bit-identical.
template <std::size_t K>
class TreeAggregateProgram final : public NodeProgram {
 public:
  TreeAggregateProgram(const TreeData& t, std::array<std::uint64_t*, K> acc,
                       int bits_per_value, int bandwidth, bool plain_sums)
      : tree_(&t), acc_(acc), plain_(plain_sums) {
    first_chunk_bits_ = std::min(bits_per_value, bandwidth);
  }

  void init(NodeId v, Outbox& out) override {
    if (tree_->depth > 0 && tree_->level[v] == tree_->depth) send_up(v, out);
  }

  void on_round(std::int64_t round, NodeId v, const Inbox&, Outbox& out) override {
    if (tree_->level[v] != tree_->depth - static_cast<int>(round)) return;
    const std::int64_t off = tree_->child_off[v];
    const std::int32_t cnt = tree_->child_cnt[v];
    // Sums over children in ascending-id order (matching the Network
    // inbox order; both add flavors are order-independent anyway).
    if (plain_) {
      std::array<std::uint64_t, K> s;
      for (std::size_t k = 0; k < K; ++k) s[k] = acc_[k][v];
      for (std::int32_t j = 0; j < cnt; ++j) {
        const NodeId c = tree_->children_flat[off + j];
        for (std::size_t k = 0; k < K; ++k) s[k] += acc_[k][c];
      }
      for (std::size_t k = 0; k < K; ++k) acc_[k][v] = s[k];
    } else {
      for (std::int32_t j = 0; j < cnt; ++j) {
        const NodeId c = tree_->children_flat[off + j];
        for (std::size_t k = 0; k < K; ++k) acc_[k][v] = sat_add_u64(acc_[k][v], acc_[k][c]);
      }
    }
    if (v != tree_->root) send_up(v, out);
  }

  bool done(std::int64_t rounds) override { return rounds == tree_->depth; }

  // Wave r only ever acts on level depth-r (and the init wave on the
  // deepest level): dispatch exactly that level.
  Roster roster(std::int64_t round) override {
    return tree_->level_roster(tree_->depth - static_cast<int>(round));
  }

  std::array<std::uint64_t, K> result() const {
    std::array<std::uint64_t, K> r;
    for (std::size_t k = 0; k < K; ++k) r[k] = acc_[k][tree_->root];
    return r;
  }

 private:
  void send_up(NodeId v, Outbox& out) {
    const std::uint64_t first_chunk =
        first_chunk_bits_ >= 64
            ? acc_[0][v]
            : (acc_[0][v] & ((std::uint64_t{1} << first_chunk_bits_) - 1));
    out.send_nth(tree_->parent_nth[v], first_chunk, first_chunk_bits_);
  }

  const TreeData* tree_;
  std::array<std::uint64_t*, K> acc_;
  bool plain_;
  int first_chunk_bits_;
};

// Root-to-all broadcast over the tree (NodeProgram form of
// congest::BfsTree::broadcast): level-r nodes forward to their children
// in phase r; depth rounds, one message per tree edge. 1-bit broadcasts
// go over the flag plane (identical charging; no receiver ever reads the
// payload — the broadcast value is known to the caller).
class TreeBroadcastProgram final : public NodeProgram {
 public:
  TreeBroadcastProgram(const TreeData& t, std::uint64_t value, int bits, int bandwidth)
      : tree_(&t) {
    first_chunk_bits_ = std::min(bits, bandwidth);
    first_chunk_ = first_chunk_bits_ >= 64
                       ? value
                       : (value & ((std::uint64_t{1} << first_chunk_bits_) - 1));
  }

  void init(NodeId v, Outbox& out) override {
    if (v == tree_->root && tree_->depth > 0) forward(v, out);
  }

  void on_round(std::int64_t round, NodeId v, const Inbox&, Outbox& out) override {
    if (tree_->level[v] == static_cast<int>(round)) forward(v, out);
  }

  bool done(std::int64_t rounds) override { return rounds == tree_->depth; }

  // Wave r forwards from level r (init from the root): dispatch exactly
  // that level.
  Roster roster(std::int64_t round) override {
    return tree_->level_roster(static_cast<int>(round));
  }

 private:
  void forward(NodeId v, Outbox& out) {
    const std::int64_t off = tree_->child_off[v];
    const std::int32_t cnt = tree_->child_cnt[v];
    if (first_chunk_bits_ == 1) {
      for (std::int32_t j = 0; j < cnt; ++j) out.send_flag_nth(tree_->children_nth_flat[off + j]);
    } else {
      for (std::int32_t j = 0; j < cnt; ++j) {
        out.send_nth(tree_->children_nth_flat[off + j], first_chunk_, first_chunk_bits_);
      }
    }
  }

  const TreeData* tree_;
  std::uint64_t first_chunk_;
  int first_chunk_bits_;
};

// Encodes values[v] for every tree node into acc (Q32.32), returning
// whether the grand total provably cannot saturate: the running
// __int128 total of the (non-negative) encodings bounds every partial
// sum of the convergecast, so total <= UINT64_MAX makes plain adds
// bit-identical to sat_add_u64.
bool encode_tree_values(const TreeData& tree, const std::vector<long double>& values,
                        std::vector<std::uint64_t>& acc, NodeId n) {
  acc.resize(static_cast<std::size_t>(n));
  unsigned __int128 total = 0;
  for (const NodeId v : tree.level_nodes) {
    const std::uint64_t enc = congest::to_fixed(values[v]);
    acc[v] = enc;
    total += enc;
  }
  return total <= static_cast<unsigned __int128>(~std::uint64_t{0});
}

}  // namespace

void build_tree_data(ParallelEngine& eng, NodeId root, TreeData* out) {
  const Graph& g = eng.graph();
  BfsBuildProgram prog(g, root, out);
  eng.run(prog);
  out->sorted_scratch.resize(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    assert(out->level[v] >= 0 && "build_tree_data requires a connected graph");
    out->depth = std::max(out->depth, out->level[v]);
    out->sorted_scratch[static_cast<std::size_t>(v)] = v;
  }
  finalize_tree_positions(g, out, out->sorted_scratch);
}

void finalize_tree_positions(const Graph& g, TreeData* out, const std::vector<NodeId>& nodes) {
  const NodeId n = g.num_nodes();
  out->num_tree_nodes = static_cast<std::int64_t>(nodes.size());
  out->level.resize(static_cast<std::size_t>(n));  // no-op after first bind
  out->parent.resize(static_cast<std::size_t>(n));
  out->parent_nth.resize(static_cast<std::size_t>(n));
  out->child_off.resize(static_cast<std::size_t>(n));
  out->child_cnt.resize(static_cast<std::size_t>(n));
  out->children_flat.resize(nodes.size());
  out->children_nth_flat.resize(nodes.size());
  out->level_off.assign(static_cast<std::size_t>(out->depth) + 2, 0);
  out->level_nodes.resize(nodes.size());

  // Counting sorts over the tree's own nodes only: per-level rosters and
  // the children CSR, both ascending-id within a group because `nodes`
  // is ascending.
  for (const NodeId v : nodes) {
    ++out->level_off[static_cast<std::size_t>(out->level[v]) + 1];
    out->child_cnt[v] = 0;
  }
  for (std::size_t l = 1; l < out->level_off.size(); ++l) {
    out->level_off[l] += out->level_off[l - 1];
  }
  for (const NodeId v : nodes) {
    if (out->parent[v] >= 0) ++out->child_cnt[out->parent[v]];
  }
  {
    std::int64_t off = 0;
    for (const NodeId v : nodes) {
      out->child_off[v] = off;
      off += out->child_cnt[v];
      out->child_cnt[v] = 0;  // reused as the fill cursor below
    }
  }

  auto nth_of = [&g](NodeId v, NodeId u) {
    const auto nb = g.neighbors(v);
    return static_cast<int>(std::lower_bound(nb.begin(), nb.end(), u) - nb.begin());
  };
  // One cursor array per level would cost O(depth); reuse level_off as
  // cursors and rebuild it afterwards instead.
  for (const NodeId v : nodes) {
    out->level_nodes[static_cast<std::size_t>(
        out->level_off[static_cast<std::size_t>(out->level[v])]++)] = v;
    const NodeId p = out->parent[v];
    if (p >= 0) {
      const std::int64_t slot = out->child_off[p] + out->child_cnt[p]++;
      out->children_flat[static_cast<std::size_t>(slot)] = v;
      out->children_nth_flat[static_cast<std::size_t>(slot)] = nth_of(p, v);
      out->parent_nth[v] = nth_of(v, p);
    } else {
      out->parent_nth[v] = -1;
    }
  }
  for (std::size_t l = out->level_off.size() - 1; l > 0; --l) {
    out->level_off[l] = out->level_off[l - 1];
  }
  out->level_off[0] = 0;
}

void cluster_tree_data(const Graph& g, const Cluster& cluster, TreeData* out) {
  const NodeId n = g.num_nodes();
  out->root = cluster.root;
  out->depth = cluster.tree_depth;
  // Resize-once, never reset: rebinding writes only the new tree's
  // entries (see TreeData — stale entries are unreachable through the
  // rosters and children CSR).
  if (static_cast<NodeId>(out->level.size()) != n) {
    out->level.resize(static_cast<std::size_t>(n));
    out->parent.resize(static_cast<std::size_t>(n));
  }
  // tree_nodes lists a parent before its children, so one forward sweep
  // settles every level (mirroring the Network transport's bind_cluster).
  for (std::size_t i = 0; i < cluster.tree_nodes.size(); ++i) {
    const NodeId v = cluster.tree_nodes[i];
    const NodeId p = cluster.tree_parent[i];
    out->parent[static_cast<std::size_t>(v)] = p;
    const int lv = (p < 0) ? 0 : out->level[static_cast<std::size_t>(p)] + 1;
    out->level[static_cast<std::size_t>(v)] = lv;
    out->depth = std::max(out->depth, lv);
  }
  out->sorted_scratch.assign(cluster.tree_nodes.begin(), cluster.tree_nodes.end());
  std::sort(out->sorted_scratch.begin(), out->sorted_scratch.end());
  finalize_tree_positions(g, out, out->sorted_scratch);
}

std::uint64_t aggregate_fixed_sum(ParallelEngine& eng, const TreeData& tree,
                                  const std::vector<long double>& values,
                                  AggregateScratch* scratch) {
  AggregateScratch local;
  if (scratch == nullptr) scratch = &local;
  const bool plain = encode_tree_values(tree, values, scratch->acc0, eng.graph().num_nodes());
  constexpr int kBits = 64;
  TreeAggregateProgram<1> prog(tree, {scratch->acc0.data()}, kBits, eng.bandwidth_bits(),
                               plain);
  eng.run(prog);
  const int chunks = (kBits + eng.bandwidth_bits() - 1) / eng.bandwidth_bits();
  if (chunks > 1) eng.tick(chunks - 1);
  return prog.result()[0];
}

std::pair<std::uint64_t, std::uint64_t> aggregate_fixed_pair_sum(
    ParallelEngine& eng, const TreeData& tree, const std::vector<long double>& values0,
    const std::vector<long double>& values1, AggregateScratch* scratch) {
  AggregateScratch local;
  if (scratch == nullptr) scratch = &local;
  const NodeId n = eng.graph().num_nodes();
  const bool plain0 = encode_tree_values(tree, values0, scratch->acc0, n);
  const bool plain1 = encode_tree_values(tree, values1, scratch->acc1, n);
  TreeAggregateProgram<2> prog(tree, {scratch->acc0.data(), scratch->acc1.data()}, 64,
                               eng.bandwidth_bits(), plain0 && plain1);
  eng.run(prog);
  const int chunks = (128 + eng.bandwidth_bits() - 1) / eng.bandwidth_bits();
  if (chunks > 1) eng.tick(chunks - 1);
  const auto sums = prog.result();
  return {sums[0], sums[1]};
}

void tree_broadcast(ParallelEngine& eng, const TreeData& tree, std::uint64_t value, int bits) {
  TreeBroadcastProgram prog(tree, value, bits, eng.bandwidth_bits());
  eng.run(prog);
  const int chunks = (bits + eng.bandwidth_bits() - 1) / eng.bandwidth_bits();
  if (chunks > 1) eng.tick(chunks - 1);
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
