#include "src/congest/tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "src/util/bits.h"

namespace dcolor::congest {

void build_tree_data(Network& net, NodeId root, TreeData* out) {
  const NodeId n = net.graph().num_nodes();
  out->root = root;
  out->depth = 0;
  out->level.assign(n, -1);
  out->parent.assign(n, -1);
  out->level[root] = 0;
  const int id_bits = bit_width_of(static_cast<std::uint64_t>(n));
  std::vector<NodeId> frontier = {root};
  for (int level = 1; !frontier.empty(); ++level) {
    for (const NodeId v : frontier) net.send_all(v, static_cast<std::uint64_t>(v), id_bits);
    net.advance_round();
    frontier.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (out->level[v] >= 0) continue;
      NodeId best_parent = -1;
      for (const Incoming& msg : net.inbox(v)) {
        const NodeId from = static_cast<NodeId>(msg.payload);
        if (best_parent < 0 || from < best_parent) best_parent = from;
      }
      if (best_parent >= 0) {
        out->level[v] = level;
        out->parent[v] = best_parent;
        frontier.push_back(v);
      }
    }
  }
  std::vector<NodeId> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), NodeId{0});
  index_tree_levels(all, out);
}

void bind_cluster_tree(const Graph& g, const Cluster& cluster, TreeData* out) {
  std::size_t roots = 0;
  for (std::size_t i = 0; i < cluster.tree_nodes.size(); ++i) {
    const NodeId v = cluster.tree_nodes[i];
    const NodeId p = cluster.tree_parent[i];
    if (p < 0) {
      if (v != cluster.root) throw CongestViolation("cluster tree has a parentless non-root");
      ++roots;
    } else if (!g.has_edge(v, p)) {
      throw CongestViolation("cluster tree edge is not a graph edge (send over non-edge)");
    }
  }
  if (roots != 1) throw CongestViolation("cluster tree must have exactly one parentless root");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  out->level.resize(n);  // no-op after the first bind
  out->parent.resize(n);
  out->root = cluster.root;
  out->depth = cluster.tree_depth;
  for (std::size_t i = 0; i < cluster.tree_nodes.size(); ++i) {
    const NodeId v = cluster.tree_nodes[i];
    const NodeId p = cluster.tree_parent[i];
    out->parent[v] = p;
    out->level[v] = p < 0 ? 0 : out->level[p] + 1;
  }
  index_tree_levels(cluster.tree_nodes, out);
}

void index_tree_levels(std::span<const NodeId> nodes, TreeData* out) {
  for (const NodeId v : nodes) {
    assert(out->level[v] >= 0 && "tree node without a level (is the graph connected?)");
    out->depth = std::max(out->depth, out->level[v]);
  }
  // Counting sort by level, using level_off as the fill cursors and
  // shifting it back afterwards; then ascending ids within each level.
  std::vector<std::int64_t>& off = out->level_off;
  off.assign(static_cast<std::size_t>(out->depth) + 2, 0);
  for (const NodeId v : nodes) ++off[static_cast<std::size_t>(out->level[v]) + 1];
  for (std::size_t l = 1; l < off.size(); ++l) off[l] += off[l - 1];
  out->level_nodes.resize(nodes.size());
  for (const NodeId v : nodes) {
    out->level_nodes[static_cast<std::size_t>(off[static_cast<std::size_t>(out->level[v])]++)] = v;
  }
  for (std::size_t l = off.size() - 1; l > 0; --l) off[l] = off[l - 1];
  off[0] = 0;
  for (std::size_t l = 0; l + 1 < off.size(); ++l) {
    std::sort(out->level_nodes.begin() + off[l], out->level_nodes.begin() + off[l + 1]);
  }
}

std::uint64_t tree_fixed_sum(const TreeData& tree, const std::vector<long double>& values,
                             std::vector<std::uint64_t>* acc) {
  // level_nodes read backwards visits all of level l+1 before any node of
  // level l, so each node's children have landed before it passes its
  // subtree sum on to its parent.
  acc->resize(values.size());
  for (const NodeId v : tree.level_nodes) (*acc)[v] = to_fixed(values[v]);
  for (std::size_t i = tree.level_nodes.size(); i-- > 1;) {
    const NodeId v = tree.level_nodes[i];
    const NodeId p = tree.parent[v];
    (*acc)[p] = sat_add_u64((*acc)[p], (*acc)[v]);
  }
  return (*acc)[tree.root];
}

Metrics wave_cost(const TreeData& tree, int value_bits, int bandwidth) {
  const auto edges = static_cast<std::int64_t>(tree.level_nodes.size()) - 1;
  const int message_bits = std::min({value_bits, 64, bandwidth});
  Metrics m;
  m.rounds = tree.depth + (value_bits + bandwidth - 1) / bandwidth - 1;
  m.messages = edges;
  m.total_bits = edges * message_bits;
  if (edges > 0) m.max_message_bits = message_bits;
  return m;
}

std::pair<long double, long double> aggregate_pair_wave(const TreeData& tree, TreeForm form,
                                                        int bandwidth,
                                                        const std::vector<long double>& values0,
                                                        const std::vector<long double>& values1,
                                                        std::vector<std::uint64_t>* acc,
                                                        Metrics* cost) {
  assert(form != TreeForm::kUnbound && "build_tree or bind_cluster first");
  const long double sum0 = from_fixed(tree_fixed_sum(tree, values0, acc));
  if (form == TreeForm::kCluster) {
    *cost = wave_cost(tree, 128, bandwidth);
    return {sum0, from_fixed(tree_fixed_sum(tree, values1, acc))};
  }
  *cost = wave_cost(tree, 64, bandwidth);
  cost->rounds += 1;
  long double sum1 = 0.0L;
  for (const long double v : values1) sum1 += v;
  return {sum0, sum1};
}

std::uint64_t to_fixed(long double x) {
  assert(x >= 0.0L);
  const long double scaled = x * 4294967296.0L;  // 2^32
  if (scaled >= 18446744073709551615.0L) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(llroundl(scaled));
}

long double from_fixed(std::uint64_t f) {
  return static_cast<long double>(f) / 4294967296.0L;
}

}  // namespace dcolor::congest
