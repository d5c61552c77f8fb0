#include "src/coloring/derand_mis.h"

#include <algorithm>

#include "src/coloring/pair_prob.h"
#include "src/graph/properties.h"
#include "src/hash/bitwise_family.h"
#include "src/runtime/coloring_transport.h"
#include "src/util/bits.h"

namespace dcolor {

DerandMisResult derandomized_mis_core(ColoringTransport& t) {
  const Graph& g = t.graph();
  const NodeId n = g.num_nodes();
  DerandMisResult res;
  res.in_mis.assign(n, false);
  if (n == 0) return res;

  // Input coloring for the coins (adjacent nodes must hash independently).
  const LinialResult lin = t.linial(InducedSubgraph(g, std::vector<bool>(n, true)), nullptr, 0);
  t.build_tree(0);

  std::vector<char> active(n, 1);
  NodeId remaining = n;

  while (remaining > 0) {
    ++res.iterations;
    // Active adjacency (ascending, as g's adjacency is): the targets of
    // every exchange below. Isolated active nodes join immediately.
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
      t.exchange_along(adj, senders, payloads, b + 1, nullptr);
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
    // Once every coin is decided, that bit's wave pair finds no live node
    // and stops the phase (derand_channel.h); its sums go unused.
    const int d = engine->num_seed_bits();
    std::vector<long double> x0(n), x1(n);
    std::vector<bool> counted(n);
    for (int j = 0; j < d; ++j) {
      if (engine->decided()) {
        t.aggregate_pair(x0, x1);
        t.broadcast_bit(0);
        break;
      }
      std::fill(x0.begin(), x0.end(), 0.0L);
      std::fill(x1.begin(), x1.end(), 0.0L);
      // Marginals come for free from any incident edge's joint; nodes
      // without edges were handled above.
      std::fill(counted.begin(), counted.end(), false);
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
      // Aggregate both candidate sums in one wave over the BFS tree; the
      // leader picks the MAXIMIZING bit (negated objective of the
      // coloring engine). Every node's sums were rewritten above, so
      // this is the full form, not aggregate_pair_update.
      const auto [sum0, sum1] = t.aggregate_pair(x0, x1);
      const int bit = sum0 >= sum1 ? 0 : 1;
      t.broadcast_bit(bit);
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
      t.exchange_along(adj, candidate, ones, 1, nullptr);
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
    std::vector<std::vector<NodeId>> heard(n);
    {
      std::vector<char> senders(n, 0);
      std::vector<std::uint64_t> ones(n, 1);
      for (NodeId v : joined) {
        res.in_mis[v] = true;
        senders[v] = 1;
      }
      t.exchange_along(adj, senders, ones, 1, &heard);
    }
    std::vector<char> deact(n, 0);
    for (NodeId v : joined) deact[v] = 1;
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && !heard[v].empty()) deact[v] = 1;
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
  DerandMisResult res;
  res.in_mis.assign(g.num_nodes(), false);
  if (g.num_nodes() == 0) return res;
  const bool split =
      for_each_component(g, [&](const Graph& sub, const std::vector<NodeId>& global) {
        const DerandMisResult part = solve_connected(sub);
        for (std::size_t i = 0; i < global.size(); ++i) res.in_mis[global[i]] = part.in_mis[i];
        res.metrics.merge_parallel(part.metrics);
        res.iterations = std::max(res.iterations, part.iterations);
      });
  if (!split) return solve_connected(g);
  return res;
}

DerandMisResult derandomized_mis(const Graph& g) {
  return derandomized_mis_per_component(g, [](const Graph& sub) {
    runtime::NetworkColoringTransport transport(sub);
    return derandomized_mis_core(transport);
  });
}

}  // namespace dcolor
