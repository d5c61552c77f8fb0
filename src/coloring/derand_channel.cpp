#include "src/coloring/derand_channel.h"

#include <algorithm>
#include <cassert>

#include "src/coloring/mis.h"

namespace dcolor {

LinialResult NetworkColoringTransport::linial(const InducedSubgraph& active,
                                              const std::vector<std::int64_t>* initial,
                                              std::int64_t initial_colors) {
  return linial_coloring(*net_, active, initial, initial_colors);
}

void NetworkColoringTransport::build_tree(NodeId root) {
  congest::build_tree_data(*net_, root, &tree_);
  form_ = congest::TreeForm::kBfs;
}

void NetworkColoringTransport::bind_cluster(const Cluster& cluster) {
  congest::bind_cluster_tree(net_->graph(), cluster, &tree_);
  form_ = congest::TreeForm::kCluster;
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
  congest::Metrics cost;
  const auto sums = congest::aggregate_pair_wave(tree_, form_, net_->bandwidth_bits(), values0,
                                                 values1, &acc_, &cost);
  net_->charge(cost);
  return sums;
}

void NetworkColoringTransport::broadcast_bit(int) {
  // The chosen bit goes down every tree edge; the caller already knows
  // it, so only the charge remains.
  assert(form_ != congest::TreeForm::kUnbound && "build_tree or bind_cluster first");
  net_->charge(congest::wave_cost(tree_, 1, net_->bandwidth_bits()));
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
