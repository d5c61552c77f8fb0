#include "src/clique/clique_coloring.h"

#include <algorithm>

#include "src/coloring/baselines.h"
#include "src/coloring/segment_derand.h"
#include "src/util/bits.h"

namespace dcolor::clique {
namespace {

// Theorem 1.3's charges for one Section-4 commit cycle.
class CliqueCosts final : public Section4Costs {
 public:
  CliqueCosts(CliqueNetwork& net, const Graph& g, int cbits) : net_(net), g_(g), cbits_(cbits) {}

  // Lenzen routing: 2^i values per conflict neighbor fit the budget at
  // this stage.
  void count_exchange(const std::vector<MultiwaySpec>& specs,
                      const std::vector<std::vector<NodeId>>& conflict, int b) override {
    std::vector<CliqueNetwork::RoutedMessage> msgs;
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      if (!specs[v].active) continue;
      for (NodeId u : conflict[v]) {
        for (std::size_t k = 1; k < specs[v].bounds.size(); ++k) {
          msgs.push_back({v, u, specs[v].bounds[k], b + 1});
        }
      }
    }
    net_.route(msgs);
  }

  // Three direct rounds: x-values to the 2^lambda responsible nodes,
  // their sums to the leader, the leader's broadcast of the segment.
  void fixed_segment() override { net_.tick(3); }

  // One direct round: each newly colored node tells its active neighbors.
  void commit_announcement(const std::vector<NodeId>& newly, const std::vector<Color>& colors,
                           const std::vector<bool>& active) override {
    for (NodeId v : newly) {
      for (NodeId u : g_.neighbors(v)) {
        if (u != v && active[u]) net_.send(v, u, static_cast<std::uint64_t>(colors[v]), cbits_);
      }
    }
    net_.advance_round();
  }

 private:
  CliqueNetwork& net_;
  const Graph& g_;
  int cbits_;
};

}  // namespace

CliqueColoringResult clique_list_coloring(const Graph& g, ListInstance inst) {
  const NodeId n = g.num_nodes();
  CliqueColoringResult res;
  res.colors.assign(n, kUncolored);
  if (n == 0) return res;
  CliqueNetwork net(n);
  const int cbits = std::max(inst.color_bits(), 1);
  const int id_bits = bit_width_of(static_cast<std::uint64_t>(n));
  const int lambda = std::max(1, floor_log2(static_cast<std::uint64_t>(n)));
  const NodeId leader = 0;
  CliqueCosts costs(net, g, cbits);

  std::vector<bool> active(n, true);
  NodeId uncolored = n;
  const int delta_g = std::max(g.max_degree(), 2);
  while (uncolored > std::max<NodeId>(1, n / delta_g)) {
    // One commit cycle with i-bit passes: once at most n/2^i nodes are
    // uncolored, each pass fixes i candidate bits.
    ++res.commit_cycles;
    const int i_bits = std::max(
        1, std::min<int>(floor_log2(static_cast<std::uint64_t>(
               std::max<NodeId>(2, n / std::max<NodeId>(uncolored, 1)))) + 1, 6));
    uncolored -= section4_commit_cycle(g, inst, active, res.colors, i_bits, lambda, costs,
                                       &res.derand_passes);
  }

  if (uncolored > 0) {
    // Final stage: ship the residual instance to the leader.
    res.final_subgraph_size = uncolored;
    std::vector<CliqueNetwork::RoutedMessage> edge_msgs, list_msgs;
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      for (NodeId u : g.neighbors(v)) {
        if (active[u] && v < u) {
          edge_msgs.push_back({v, leader, (static_cast<std::uint64_t>(v) << id_bits) |
                                              static_cast<std::uint64_t>(u),
                               2 * id_bits});
        }
      }
      for (Color c : inst.list(v)) {
        list_msgs.push_back({v, leader, (static_cast<std::uint64_t>(v) << cbits) |
                                            static_cast<std::uint64_t>(c),
                             id_bits + cbits});
      }
    }
    net.route(edge_msgs);
    net.route(list_msgs);
    // The leader solves the residual (degree+1) instance with the pruned
    // lists, then announces the colors: one round, <= n-1 direct messages.
    greedy_color_uncolored(g, inst, res.colors);
    for (NodeId v = 1; v < n; ++v) {
      net.send(leader, v, static_cast<std::uint64_t>(std::max<Color>(res.colors[v], 0)), cbits);
    }
    net.advance_round();
  }
  res.metrics = net.metrics();
  return res;
}

}  // namespace dcolor::clique
