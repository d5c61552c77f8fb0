#include "src/coloring/derand_mis.h"

#include <algorithm>
#include <cassert>

#include "src/coloring/pair_prob.h"
#include "src/congest/bfs_tree.h"
#include "src/congest/network.h"
#include "src/graph/properties.h"
#include "src/hash/bitwise_family.h"
#include "src/util/bits.h"

namespace dcolor {
namespace {

// Reference transport: the sequential CONGEST simulator. Every primitive
// is exactly the call sequence the pre-transport implementation issued,
// so metrics are unchanged and the parallel engine has a golden model.
class NetworkMisTransport final : public MisTransport {
 public:
  explicit NetworkMisTransport(const Graph& g) : g_(&g), net_(g) {}

  LinialResult linial_ids() override {
    InducedSubgraph all(*g_, std::vector<bool>(g_->num_nodes(), true));
    return linial_coloring(net_, all);
  }

  void build_tree(NodeId root) override { tree_ = congest::BfsTree::build(net_, root); }

  void exchange(const std::vector<char>& senders, const std::vector<std::uint64_t>& payloads,
                int bits, const std::vector<char>& active,
                std::vector<char>* received) override {
    const NodeId n = g_->num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      if (!senders[v]) continue;
      for (NodeId u : g_->neighbors(v)) {
        if (active[u]) net_.send(v, u, payloads[v], bits);
      }
    }
    net_.advance_round();
    if (received != nullptr) {
      for (NodeId v = 0; v < n; ++v) (*received)[v] = net_.inbox(v).empty() ? 0 : 1;
    }
  }

  std::uint64_t aggregate_fixed_sum(const std::vector<long double>& values) override {
    return congest::aggregate_fixed_sum(net_, tree_, values);
  }

  void broadcast(std::uint64_t value, int bits) override { tree_.broadcast(net_, value, bits); }

  void tick(std::int64_t rounds) override { net_.tick(rounds); }

  const congest::Metrics& metrics() const override { return net_.metrics(); }

 private:
  const Graph* g_;
  congest::Network net_;
  congest::BfsTree tree_;
};

}  // namespace

DerandMisResult derandomized_mis_core(const Graph& g, MisTransport& t) {
  const NodeId n = g.num_nodes();
  DerandMisResult res;
  res.in_mis.assign(n, false);
  if (n == 0) return res;

  // Input coloring for the coins (adjacent nodes must hash independently).
  LinialResult lin = t.linial_ids();
  t.build_tree(0);

  std::vector<char> active(n, 1);
  NodeId remaining = n;

  while (remaining > 0) {
    ++res.iterations;
    // Active degrees; isolated active nodes join immediately.
    std::vector<std::vector<NodeId>> adj(n);
    int delta = 1;
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      for (NodeId u : g.neighbors(v)) {
        if (active[u]) adj[v].push_back(u);
      }
      delta = std::max(delta, static_cast<int>(adj[v].size()));
    }
    std::vector<NodeId> joined;
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && adj[v].empty()) {
        res.in_mis[v] = true;
        active[v] = 0;
        --remaining;
      }
    }
    if (remaining == 0) break;

    // Coins: p = 1/(2*Delta), precision such that the epsilon loss cannot
    // erase the n/(4*Delta) progress margin (Lemma 2.3-style slack).
    const int b = std::max(4, ceil_log2(64ull * static_cast<std::uint64_t>(delta) * delta));
    std::vector<CoinSpec> specs(n);
    for (NodeId v = 0; v < n; ++v) {
      specs[v] = (active[v] && !adj[v].empty())
                     ? CoinSpec{static_cast<std::uint64_t>(lin.coloring[v]),
                                threshold_for(1, 2ull * static_cast<std::uint64_t>(delta), b)}
                     : CoinSpec{0, 0};
    }
    std::vector<ConflictEdge> edges;
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      for (NodeId u : adj[v]) {
        if (v < u) edges.push_back(ConflictEdge{v, u});
      }
    }
    // One round: exchange thresholds (b+1 bits) so neighbors can evaluate
    // each other's conditional join probabilities.
    {
      std::vector<char> senders(n, 0);
      std::vector<std::uint64_t> payloads(n, 0);
      for (NodeId v = 0; v < n; ++v) {
        if (active[v] && !adj[v].empty()) {
          senders[v] = 1;
          payloads[v] = specs[v].threshold;
        }
      }
      t.exchange(senders, payloads, b + 1, active, nullptr);
    }

    auto engine =
        make_fast_bitwise_pair_prob(static_cast<std::uint64_t>(lin.num_colors), b);
    engine->begin_phase(specs, edges);

    // Fix the seed, MAXIMIZING the conditional estimator
    //   F = sum_v Pr[C_v=1] - sum_{(u,v) in E} Pr[C_u=1 and C_v=1]
    // (per-node form: each node owns its marginal and half of each
    // incident edge's joint term twice -> assign joint to both endpoints
    // with weight 1/2... we instead assign the marginal to v and the full
    // joint to the lower endpoint; the SUM is what matters).
    const int d = engine->num_seed_bits();
    std::vector<long double> x0(n), x1(n);
    for (int j = 0; j < d; ++j) {
      std::fill(x0.begin(), x0.end(), 0.0L);
      std::fill(x1.begin(), x1.end(), 0.0L);
      // Marginals come for free from any incident edge's joint; nodes
      // without edges were handled above.
      std::vector<bool> counted(n, false);
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const NodeId u = edges[e].u;
        const NodeId v = edges[e].v;
        const auto [J0, J1] = engine->edge_joints(static_cast<int>(e));
        if (!counted[u]) {
          counted[u] = true;
          x0[u] += J0[1][0] + J0[1][1];
          x1[u] += J1[1][0] + J1[1][1];
        }
        if (!counted[v]) {
          counted[v] = true;
          x0[v] += J0[0][1] + J0[1][1];
          x1[v] += J1[0][1] + J1[1][1];
        }
        x0[u] -= J0[1][1];
        x1[u] -= J1[1][1];
      }
      // The estimator terms can be negative (joint mass exceeding the
      // marginal on high-degree nodes); the fixed-point aggregation codec
      // is non-negative, so shift every node by +1 — the same offset on
      // both candidate sums leaves the argmax unchanged.
      for (NodeId v = 0; v < n; ++v) {
        x0[v] += 1.0L;
        x1[v] += 1.0L;
      }
      // Aggregate both candidate sums over the BFS tree; the leader picks
      // the MAXIMIZING bit (negated objective of the coloring engine).
      const std::uint64_t s0 = t.aggregate_fixed_sum(x0);
      long double sum1 = 0;
      for (long double x : x1) sum1 += x;
      t.tick(1);  // second word rides the same wave (pipelined chunk)
      const long double sum0 = congest::from_fixed(s0);
      const int bit = sum0 >= sum1 ? 0 : 1;
      t.broadcast(static_cast<std::uint64_t>(bit), 1);
      engine->fix_next_bit(bit);
    }

    // Apply: candidates = coin 1; enter MIS if no candidate neighbor.
    std::vector<char> candidate(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && !adj[v].empty()) candidate[v] = engine->coin(v) == 1 ? 1 : 0;
    }
    // One round: candidates announce themselves.
    {
      std::vector<std::uint64_t> ones(n, 1);
      t.exchange(candidate, ones, 1, active, nullptr);
    }
    for (NodeId v = 0; v < n; ++v) {
      if (!candidate[v]) continue;
      bool lonely = true;
      for (NodeId u : adj[v]) lonely &= !candidate[u];
      if (lonely) joined.push_back(v);
    }
    // Deterministic fallback: the estimator guarantees progress in
    // expectation >= n_active/(4 Delta) > 0, and the derandomized value is
    // an integer >= it — but guard against a violated assumption anyway.
    if (joined.empty()) {
      NodeId best = -1;
      for (NodeId v = 0; v < n; ++v) {
        if (active[v] && (best < 0 || adj[v].size() < adj[best].size())) best = v;
      }
      joined.push_back(best);
      t.tick(1);
    }
    // MIS nodes announce; they and their neighbors deactivate.
    std::vector<char> got(n, 0);
    {
      std::vector<char> senders(n, 0);
      std::vector<std::uint64_t> ones(n, 1);
      for (NodeId v : joined) {
        res.in_mis[v] = true;
        senders[v] = 1;
      }
      t.exchange(senders, ones, 1, active, &got);
    }
    std::vector<char> deact(n, 0);
    for (NodeId v : joined) deact[v] = 1;
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && got[v]) deact[v] = 1;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && deact[v]) {
        active[v] = 0;
        --remaining;
      }
    }
  }
  res.metrics = t.metrics();
  return res;
}

DerandMisResult derandomized_mis_per_component(
    const Graph& g, const std::function<DerandMisResult(const Graph&)>& solve_connected) {
  const NodeId n = g.num_nodes();
  DerandMisResult res;
  res.in_mis.assign(n, false);
  if (n == 0) return res;

  int num_comp = 0;
  const std::vector<int> comp = connected_components(g, &num_comp);
  if (num_comp == 1) return solve_connected(g);

  // Components execute in parallel — rounds are the max, messages add up.
  for (int c = 0; c < num_comp; ++c) {
    std::vector<NodeId> local(n, -1);
    std::vector<NodeId> global;
    for (NodeId v = 0; v < n; ++v) {
      if (comp[v] == c) {
        local[v] = static_cast<NodeId>(global.size());
        global.push_back(v);
      }
    }
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v : global) {
      for (NodeId u : g.neighbors(v)) {
        if (comp[u] == c && v < u) edges.emplace_back(local[v], local[u]);
      }
    }
    Graph sub = Graph::from_edges(static_cast<NodeId>(global.size()), std::move(edges));
    DerandMisResult sub_res = solve_connected(sub);
    for (std::size_t i = 0; i < global.size(); ++i) {
      res.in_mis[global[i]] = sub_res.in_mis[i];
    }
    res.iterations = std::max(res.iterations, sub_res.iterations);
    res.metrics.rounds = std::max(res.metrics.rounds, sub_res.metrics.rounds);
    res.metrics.messages += sub_res.metrics.messages;
    res.metrics.total_bits += sub_res.metrics.total_bits;
    res.metrics.max_message_bits =
        std::max(res.metrics.max_message_bits, sub_res.metrics.max_message_bits);
  }
  return res;
}

DerandMisResult derandomized_mis(const Graph& g) {
  return derandomized_mis_per_component(g, [](const Graph& sub) {
    NetworkMisTransport transport(sub);
    return derandomized_mis_core(sub, transport);
  });
}

}  // namespace dcolor
