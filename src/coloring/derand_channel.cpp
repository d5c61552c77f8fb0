#include "src/coloring/derand_channel.h"

#include <algorithm>
#include <cassert>

#include "src/coloring/mis.h"
#include "src/util/bits.h"

namespace dcolor {

LinialResult NetworkColoringTransport::linial(const InducedSubgraph& active,
                                              const std::vector<std::int64_t>* initial,
                                              std::int64_t initial_colors) {
  return linial_coloring(*net_, active, initial, initial_colors);
}

void NetworkColoringTransport::build_tree(NodeId root) {
  cluster_ = nullptr;
  tree_ = congest::BfsTree::build(*net_, root);
}

void NetworkColoringTransport::bind_cluster(const Cluster& cluster) {
  tree_.reset();
  cluster_ = &cluster;
  cluster_depth_ = cluster.tree_depth;
  const NodeId n = net_->graph().num_nodes();
  cluster_level_.assign(n, -1);
  cluster_parent_.assign(n, -1);
  // Recompute depths from parents (tree_nodes are in insertion order, so a
  // parent always precedes its children).
  for (std::size_t i = 0; i < cluster.tree_nodes.size(); ++i) {
    const NodeId v = cluster.tree_nodes[i];
    const NodeId p = cluster.tree_parent[i];
    cluster_parent_[v] = p;
    cluster_level_[v] = (p < 0) ? 0 : cluster_level_[p] + 1;
    cluster_depth_ = std::max(cluster_depth_, cluster_level_[v]);
  }
}

void NetworkColoringTransport::exchange_along(const std::vector<std::vector<NodeId>>& targets,
                                              const std::vector<char>& senders,
                                              const std::vector<std::uint64_t>& payloads,
                                              int bits,
                                              std::vector<std::vector<NodeId>>* from) {
  const NodeId n = net_->graph().num_nodes();
  const int bw = net_->bandwidth_bits();
  const int chunks = (bits + bw - 1) / bw;
  const int first_bits = std::min(bits, bw);
  const std::uint64_t mask =
      first_bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << first_bits) - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (!senders[v]) continue;
    for (NodeId u : targets[v]) net_->send(v, u, payloads[v] & mask, first_bits);
  }
  net_->advance_round();
  if (chunks > 1) net_->tick(chunks - 1);
  if (from != nullptr) {
    for (NodeId v = 0; v < n; ++v) {
      auto& fv = (*from)[v];
      fv.clear();
      for (const congest::Incoming& m : net_->inbox(v)) fv.push_back(m.from);
    }
  }
}

std::pair<long double, long double> NetworkColoringTransport::aggregate_pair(
    const std::vector<long double>& values0, const std::vector<long double>& values1) {
  if (cluster_ != nullptr) return aggregate_cluster_pair(values0, values1);
  assert(tree_.has_value() && "build_tree or bind_cluster first");
  // BFS-tree form: the first word is aggregated over the tree, the
  // second rides the same wave as one extra pipelined chunk (summed in
  // memory, one charged round). This under-charges a 128-bit wave and
  // leaves the second sum unquantized — the accounting gap documented at
  // EngineColoringTransport::aggregate_pair (ROADMAP item 4).
  const long double s0 =
      congest::from_fixed(congest::aggregate_fixed_sum(*net_, *tree_, values0));
  long double s1 = 0.0L;
  for (long double v : values1) s1 += v;
  net_->tick(1);
  return {s0, s1};
}

void NetworkColoringTransport::broadcast_bit(int bit) {
  if (cluster_ != nullptr) return broadcast_cluster_bit(bit);
  assert(tree_.has_value() && "build_tree or bind_cluster first");
  tree_->broadcast(*net_, static_cast<std::uint64_t>(bit), 1);
}

std::pair<long double, long double> NetworkColoringTransport::aggregate_cluster_pair(
    const std::vector<long double>& values0, const std::vector<long double>& values1) {
  congest::Network& net = *net_;
  // Convergecast over the cluster tree: one wave, both sums (the second
  // 64-bit word rides pipelined chunks, charged below).
  std::vector<std::uint64_t> acc0(net.graph().num_nodes(), 0);
  std::vector<std::uint64_t> acc1(net.graph().num_nodes(), 0);
  for (NodeId v : cluster_->tree_nodes) {
    acc0[v] = congest::to_fixed(values0[v]);
    acc1[v] = congest::to_fixed(values1[v]);
  }
  const int bw = net.bandwidth_bits();
  const int chunks = (128 + bw - 1) / bw;
  for (int lev = cluster_depth_; lev >= 1; --lev) {
    for (NodeId v : cluster_->tree_nodes) {
      if (cluster_level_[v] != lev) continue;
      const int first_bits = std::min(64, bw);
      const std::uint64_t first =
          first_bits >= 64 ? acc0[v] : (acc0[v] & ((std::uint64_t{1} << first_bits) - 1));
      net.send(v, cluster_parent_[v], first, first_bits);
    }
    net.advance_round();
    for (NodeId v : cluster_->tree_nodes) {
      if (cluster_level_[v] != lev) continue;
      const NodeId p = cluster_parent_[v];
      acc0[p] = sat_add_u64(acc0[p], acc0[v]);
      acc1[p] = sat_add_u64(acc1[p], acc1[v]);
    }
  }
  if (chunks > 1) net.tick(chunks - 1);
  const NodeId root = cluster_->root;
  return {congest::from_fixed(acc0[root]), congest::from_fixed(acc1[root])};
}

void NetworkColoringTransport::broadcast_cluster_bit(int bit) {
  for (int lev = 0; lev < cluster_depth_; ++lev) {
    for (NodeId v : cluster_->tree_nodes) {
      if (cluster_level_[v] != lev + 1) continue;
      net_->send(cluster_parent_[v], v, static_cast<std::uint64_t>(bit), 1);
    }
    net_->advance_round();
  }
}

std::vector<bool> NetworkColoringTransport::conflict_mis(
    const Graph& conf, const std::vector<bool>& membership,
    const std::vector<std::int64_t>& input_coloring, std::int64_t input_colors) {
  // Private simulator over the conflict graph; only its rounds are
  // charged to the main network (the conflict graph is a subgraph of G,
  // so these messages travel over G's edges).
  congest::Network conf_net(conf, net_->bandwidth_bits());
  InducedSubgraph conf_sub(conf, membership);
  LinialResult lin = linial_coloring(conf_net, conf_sub, &input_coloring, input_colors);
  std::vector<bool> in_mis =
      mis_by_color_classes(conf_net, conf_sub, lin.coloring, lin.num_colors);
  net_->tick(conf_net.metrics().rounds);
  return in_mis;
}

}  // namespace dcolor
