#include "src/coloring/partial_coloring.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "src/coloring/segment_derand.h"
#include "src/hash/bitwise_family.h"
#include "src/hash/gf_family.h"
#include "src/util/bits.h"

namespace dcolor {
namespace {

// Per-node candidate set: a contiguous range [lo, hi) of the node's sorted
// color list (all entries sharing the current prefix).
struct Range {
  int lo = 0;
  int hi = 0;
  int size() const { return hi - lo; }
};

}  // namespace

int precision_bits_for(int max_degree, int color_bits, bool avoid_mis) {
  const std::uint64_t delta = std::max(max_degree, 1);
  const std::uint64_t logc = std::max(color_bits, 1);
  std::uint64_t target = 10 * delta * logc;
  if (avoid_mis) target *= (delta + 1);
  return std::max(1, ceil_log2(target));
}

PartialColoringStats color_one_eighth(ColoringTransport& t, InducedSubgraph& active,
                                      ListInstance& inst, std::vector<Color>& colors,
                                      const std::vector<std::int64_t>& input_coloring,
                                      std::int64_t K, const PartialColoringOptions& opts) {
  const Graph& g = t.graph();
  const NodeId n = g.num_nodes();
  const int width = inst.color_bits();  // ceil(log C)

  PartialColoringStats stats;
  stats.phases = width;

  // --- Setup: active nodes, degrees, max degree of the active subgraph.
  std::vector<char> is_active(n, 0);
  std::vector<NodeId> active_nodes;
  int delta = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!active.contains(v)) continue;
    is_active[v] = 1;
    active_nodes.push_back(v);
    delta = std::max(delta, active.degree(v));
  }
  stats.active_before = static_cast<NodeId>(active_nodes.size());
  if (active_nodes.empty()) return stats;

  const int b = precision_bits_for(delta, width, opts.avoid_mis);
  stats.precision_bits = b;

  // Section-4 variant precondition: |L(v)| <= deg(v)+1 (needed for
  // Equation (9)). Trimming is always safe for a (degree+1) instance.
  if (opts.avoid_mis) {
    for (NodeId v : active_nodes) {
      inst.trim_list(v, static_cast<std::size_t>(active.degree(v)) + 1);
    }
  }

  // Coin machinery. Input colors for the hash are the given K-coloring.
  // Only the generic engine reads a CoinFamily; it must outlive the engine.
  std::unique_ptr<CoinFamily> family;
  std::unique_ptr<PairProbEngine> engine;
  if (opts.family == CoinFamilyKind::kBitwise) {
    engine = make_fast_bitwise_pair_prob(static_cast<std::uint64_t>(K), b);
  } else {
    family = make_coin_family(opts.family, static_cast<std::uint64_t>(K), b);
    engine = make_generic_pair_prob(*family);
  }
  stats.seed_bits = engine->num_seed_bits();

  // --- Alive conflict adjacency (edges of G_l: equal prefixes so far).
  std::vector<std::vector<NodeId>> alive(n);
  for (NodeId v : active_nodes) {
    active.for_each_neighbor(v, [&](NodeId u) { alive[v].push_back(u); });
  }

  // Candidate ranges over the (sorted) lists.
  std::vector<Range> range(n);
  for (NodeId v : active_nodes) range[v] = Range{0, static_cast<int>(inst.list(v).size())};

  // The input coloring psi is static; in a real execution nodes exchange
  // it along conflict edges once (log K bits).
  {
    std::vector<std::uint64_t> psi(n, 0);
    for (NodeId v : active_nodes) psi[v] = static_cast<std::uint64_t>(input_coloring[v]);
    t.exchange_along(alive, is_active, psi,
                     bit_width_of(static_cast<std::uint64_t>(std::max<std::int64_t>(K - 1, 1))),
                     nullptr);
  }

  std::vector<CoinSpec> specs(n);
  // Where bit l splits each candidate range: entries [lo, split) have
  // bit 0, entries [split, hi) bit 1.
  std::vector<int> split(n, 0);
  std::vector<long double> x0(n), x1(n);
  std::vector<ConflictEdge> edges;
  // Incremental node sums: each edge's four used joint entries
  // {J0[0][0], J0[1][1], J1[0][0], J1[1][1]}, refreshed only when the
  // engine lists the edge as changed; a flat incidence CSR over the
  // phase's conflict edges, each node's edges ascending by index; and the
  // nodes whose sums need re-adding this bit (deduplicated by stamp).
  std::vector<std::array<long double, 4>> joints;
  std::vector<std::int32_t> inc_off(static_cast<std::size_t>(n) + 1);
  std::vector<std::int32_t> inc_edge;
  std::vector<NodeId> dirty;
  std::vector<std::int32_t> dirty_stamp(n, 0);
  std::int32_t stamp = 0;

  // --- ceil(logC) prefix-extension phases.
  for (int l = 0; l < width; ++l) {
    // Split each candidate range by bit l: entries with bit 0 precede
    // entries with bit 1 (lists sorted, shared prefix).
    for (NodeId v : active_nodes) {
      const auto& L = inst.list(v);
      const Range r = range[v];
      const auto first1 = std::partition_point(
          L.begin() + r.lo, L.begin() + r.hi, [&](Color c) {
            return msb_bit(static_cast<std::uint64_t>(c), l, width) == 0;
          });
      split[v] = static_cast<int>(first1 - L.begin());
      specs[v] = CoinSpec{static_cast<std::uint64_t>(input_coloring[v]),
                          threshold_for(static_cast<std::uint64_t>(r.hi - split[v]),
                                        static_cast<std::uint64_t>(r.size()), b)};
    }
    for (NodeId v = 0; v < n; ++v) {
      if (!is_active[v]) specs[v] = CoinSpec{0, 0};
    }

    // Nodes exchange tau (equivalently k1 and list size) along alive
    // conflict edges: b+1 bits.
    {
      std::vector<std::uint64_t> taus(n, 0);
      for (NodeId v : active_nodes) taus[v] = specs[v].threshold;
      t.exchange_along(alive, is_active, taus, b + 1, nullptr);
    }

    // Conflict edge list (u < v) for this phase.
    edges.clear();
    for (NodeId v : active_nodes) {
      for (NodeId u : alive[v]) {
        if (v < u) edges.push_back(ConflictEdge{v, u});
      }
    }
    engine->begin_phase(specs, edges);

    // Incidence CSR by counting sort over the edges in index order.
    std::fill(inc_off.begin(), inc_off.end(), 0);
    for (const ConflictEdge& e : edges) {
      ++inc_off[static_cast<std::size_t>(e.u) + 1];
      ++inc_off[static_cast<std::size_t>(e.v) + 1];
    }
    for (NodeId v = 0; v < n; ++v) inc_off[v + 1] += inc_off[v];
    inc_edge.resize(2 * edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      inc_edge[inc_off[edges[e].u]++] = static_cast<std::int32_t>(e);
      inc_edge[inc_off[edges[e].v]++] = static_cast<std::int32_t>(e);
    }
    for (NodeId v = n; v > 0; --v) inc_off[v] = inc_off[v - 1];  // undo the cursors
    inc_off[0] = 0;
    joints.resize(edges.size());
    // A node on no conflict edge is never re-summed: its sums stay 0.
    for (NodeId v : active_nodes) {
      x0[v] = 0.0L;
      x1[v] = 0.0L;
    }

    // --- Fix the seed bits one by one (Lemma 2.6).
    const int d = engine->num_seed_bits();
    for (int j = 0; j < d; ++j) {
      ++stamp;
      dirty.clear();
      const std::span<const int> changed = engine->changed_edges();
      engine->edge_diagonals(changed, joints.data());
      for (const int e : changed) {
        for (const NodeId w : {edges[e].u, edges[e].v}) {
          if (dirty_stamp[w] == stamp) continue;
          dirty_stamp[w] = stamp;
          dirty.push_back(w);
        }
      }
      // Contribution of each edge to E[Phi_l(w)]: Pr[both coins c]
      // weighted by 1/|L_l(w)| after the split. A node's sums are re-added
      // from 0 over its edges in ascending index order, the exact long
      // double addition sequence of one pass over all edges.
      for (const NodeId w : dirty) {
        const int k1 = range[w].hi - split[w], k0 = split[w] - range[w].lo;
        long double s0 = 0.0L;
        long double s1 = 0.0L;
        for (std::int32_t i = inc_off[w]; i < inc_off[w + 1]; ++i) {
          const std::array<long double, 4>& q = joints[inc_edge[i]];
          if (k0 > 0) {
            s0 += q[0] / k0;
            s1 += q[2] / k0;
          }
          if (k1 > 0) {
            s0 += q[1] / k1;
            s1 += q[3] / k1;
          }
        }
        x0[w] = s0;
        x1[w] = s1;
      }
      // Bit 0 lists every edge but not the nodes reset to 0 above, so it
      // re-encodes the whole tree; later bits move only `dirty`.
      const auto [sum0, sum1] =
          j == 0 ? t.aggregate_pair(x0, x1) : t.aggregate_pair_update(x0, x1, dirty);
      const int bit = sum0 <= sum1 ? 0 : 1;
      t.broadcast_bit(bit);
      engine->fix_next_bit(bit);
    }

    // --- Apply the coins: extend prefixes, update conflict edges.
    std::vector<int> new_bit(n, 0);
    for (NodeId v : active_nodes) {
      const int c = engine->coin(v);
      new_bit[v] = c;
      const Range r = range[v];
      range[v] = c ? Range{split[v], r.hi} : Range{r.lo, split[v]};
      assert(range[v].size() >= 1 && "candidate list must never become empty");
    }
    // One round: exchange the new prefix bit with alive conflict neighbors.
    {
      std::vector<std::uint64_t> bits(n, 0);
      for (NodeId v : active_nodes) bits[v] = static_cast<std::uint64_t>(new_bit[v]);
      t.exchange_along(alive, is_active, bits, 1, nullptr);
    }
    for (NodeId v : active_nodes) {
      std::erase_if(alive[v], [&](NodeId u) { return new_bit[u] != new_bit[v]; });
    }

    // Potential audit for the invariant tests (ascending node order).
    long double phi = 0.0L;
    for (NodeId v : active_nodes) {
      phi += static_cast<long double>(alive[v].size()) / range[v].size();
    }
    stats.potential_after_phase.push_back(phi);
  }

  // --- Candidate colors are now unique (full-width prefixes).
  std::vector<Color> candidate(n, kUncolored);
  for (NodeId v : active_nodes) {
    assert(range[v].size() == 1);
    candidate[v] = inst.list(v)[range[v].lo];
  }

  // --- Select a conflict-free subset to color permanently.
  std::vector<bool> keep(n, false);
  if (opts.avoid_mis) {
    // Section 4: with the extra accuracy, at least half the active nodes
    // have at most one conflict; the higher id wins a 1-conflict pair.
    for (NodeId v : active_nodes) keep[v] = section4_keeps(v, alive[v]);
    t.tick(1);  // the id-comparison round
  } else {
    // V_{<4}: conflict degree <= 3; the induced conflict graph has max
    // degree 3. Linial + color-class MIS selects >= |V_{<4}|/4 nodes.
    std::vector<bool> low(n, false);
    for (NodeId v : active_nodes) low[v] = alive[v].size() <= 3;
    // Conflict graph restricted to V_{<4}: materialize it for the MIS.
    std::vector<std::pair<NodeId, NodeId>> conf_edges;
    for (NodeId v : active_nodes) {
      if (!low[v]) continue;
      for (NodeId u : alive[v]) {
        if (low[u] && v < u) conf_edges.emplace_back(v, u);
      }
    }
    Graph conf = Graph::from_edges(n, std::move(conf_edges));
    std::vector<bool> memb(n, false);
    for (NodeId v : active_nodes) memb[v] = low[v];
    // Linial (from the given K-coloring, proper on any subgraph) + the
    // color-class MIS, both on the conflict graph; the transport charges
    // the rounds to the main network.
    const std::vector<bool> in_mis = t.conflict_mis(conf, memb, input_coloring, K);
    for (NodeId v : active_nodes) keep[v] = low[v] && in_mis[v];
  }

  // --- Commit: color kept nodes, notify neighbors, prune lists.
  std::vector<NodeId> newly;
  for (NodeId v : active_nodes) {
    if (keep[v]) newly.push_back(v);
  }
  std::vector<char> notifiers(n, 0);
  std::vector<std::uint64_t> announce(n, 0);
  std::vector<std::vector<NodeId>> notify_targets(n);
  for (NodeId v : newly) {
    colors[v] = candidate[v];
    notifiers[v] = 1;
    announce[v] = static_cast<std::uint64_t>(candidate[v]);
    active.for_each_neighbor(v, [&](NodeId u) { notify_targets[v].push_back(u); });
  }
  std::vector<std::vector<NodeId>> heard(n);
  t.exchange_along(notify_targets, notifiers, announce, width == 0 ? 1 : width, &heard);
  for (NodeId v : newly) active.remove(v);
  for (NodeId v : active_nodes) {
    if (keep[v]) continue;
    for (NodeId u : heard[v]) inst.remove_color(v, candidate[u]);
  }
  stats.newly_colored = static_cast<NodeId>(newly.size());
  return stats;
}

}  // namespace dcolor
