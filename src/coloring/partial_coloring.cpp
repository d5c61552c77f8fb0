#include "src/coloring/partial_coloring.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>

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

// The state of Lemma 2.6's seed-bit loop at one accumulator width Acc
// (node_sum_width), sized once per call. Each conflict edge keeps its
// four diagonal numerators over 2^(2b), {J0[0][0], J0[1][1], J1[0][0],
// J1[1][1]}, and each node their exact sums over its edges, {z0, o0, z1,
// o1}. x0/x1 are the node values the transport aggregates. `dirty` lists
// the nodes on this bit's dependent edges and `moved` the nodes whose
// values changed since the previous aggregate: `dirty` and the previous
// bit's `dirty`, deduplicated by stamp (dirty_stamp[v] is the last bit at
// which v was dirty).
template <typename Acc>
struct SeedSums {
  explicit SeedSums(NodeId n) : node(n), x0(n), x1(n), dirty_stamp(n, 0) {
    dirty.reserve(n);  // each holds a node at most once, so no bit allocates
    moved.reserve(n);
  }
  std::vector<std::array<Acc, 4>> edge;
  std::vector<std::array<Acc, 4>> node;
  std::vector<long double> x0, x1;
  std::vector<NodeId> dirty, moved;
  std::vector<std::int32_t> dirty_stamp;
  std::int32_t stamp = 0;
};

// The full recompute the incremental sums are checked against.
template <typename Acc>
[[maybe_unused]] bool sums_are_exact(const SeedSums<Acc>& s, const std::vector<ConflictEdge>& edges,
                                     const std::vector<NodeId>& active_nodes) {
  std::vector<std::array<Acc, 4>> want(s.node.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    for (const NodeId w : {edges[e].u, edges[e].v}) {
      for (int i = 0; i < 4; ++i) want[w][i] += s.edge[e][i];
    }
  }
  return std::all_of(active_nodes.begin(), active_nodes.end(),
                     [&](NodeId v) { return want[v] == s.node[v]; });
}

// The engine's numerators for every edge, against which each edge it
// did not list must equal the side carried from the previous bit.
template <typename Acc>
[[maybe_unused]] bool carried_edges_are_exact(PairProbEngine& engine, const SeedSums<Acc>& s,
                                              std::span<const int> listed) {
  const std::size_t m = s.edge.size();
  std::vector<int> all(m);
  std::iota(all.begin(), all.end(), 0);
  std::vector<std::array<Acc, 4>> fresh(m);
  engine.edge_diagonals(all, fresh.data());
  std::vector<char> in(m, 0);
  for (const int e : listed) in[e] = 1;
  for (std::size_t e = 0; e < m; ++e) {
    if (!in[e] && fresh[e] != s.edge[e]) return false;
  }
  return true;
}

// z / k for a node's k candidates on one side, 0 when it has none (its
// coin is then forced to the other side, and z is 0 too).
template <typename Acc>
long double per_candidate(Acc z, int k) {
  return k > 0 ? static_cast<long double>(z) / k : 0.0L;
}

// Fixes one phase's seed bits one by one (Lemma 2.6), until the engine
// has decided every coin: that bit runs its wave pair, which finds no
// live node and stops the phase (derand_channel.h). At each
// bit only the edges the engine lists as dependent are queried: each
// subtracts its old numerators from both endpoints' sums and adds its
// new ones, so every node's sums are exact at every bit, and only those
// endpoints get new values: w's term of E[Phi_l | cand = c] is (z_c / k0
// + o_c / k1) * 2^-2b, where k0 and k1 count w's candidates with bit l =
// 0 and 1. Once bit beta is chosen, every listed edge's numerators and
// every dirty node's sums and values become their beta side on both
// candidates: an unlisted edge's joints at the next bit are exactly that
// side (pair_prob.h), and a node value computed from the same integers
// by the same operations is the same. The carried nodes' values moved
// since the aggregate, so they join the next bit's update list.
template <typename Acc>
void fix_seed_bits(ColoringTransport& t, PairProbEngine& engine, int b,
                   const std::vector<ConflictEdge>& edges,
                   const std::vector<NodeId>& active_nodes, const std::vector<Range>& range,
                   const std::vector<int>& split, SeedSums<Acc>& s) {
  // Every edge is listed at the first bit, so zero numerators make its
  // first subtraction a no-op; a node on no conflict edge keeps 0.
  s.edge.assign(edges.size(), {});
  for (const NodeId v : active_nodes) {
    s.node[v] = {};
    s.x0[v] = 0.0L;
    s.x1[v] = 0.0L;
  }
  const long double scale = std::ldexp(1.0L, -2 * b);
  const int d = engine.num_seed_bits();
  for (int j = 0; j < d; ++j) {
    if (engine.decided()) {
      // Every coin is final: this bit's convergecast finds no live node
      // and its broadcast stops the phase; the sums go unused. Since the
      // previous aggregate only the nodes carried at bit j - 1 moved.
      if (j == 0) {
        t.aggregate_pair(s.x0, s.x1);
      } else {
        t.aggregate_pair_update(s.x0, s.x1, s.dirty);
      }
      t.broadcast_bit(0);
      return;
    }
    ++s.stamp;
    std::swap(s.moved, s.dirty);  // the nodes carried at the previous bit
    s.dirty.clear();
    const std::span<const int> listed = engine.dependent_edges();
    for (const int e : listed) {
      const std::array<Acc, 4> old = s.edge[e];
      for (const NodeId w : {edges[e].u, edges[e].v}) {
        for (int i = 0; i < 4; ++i) s.node[w][i] -= old[i];
        const std::int32_t last = s.dirty_stamp[w];
        if (last == s.stamp) continue;
        s.dirty_stamp[w] = s.stamp;
        s.dirty.push_back(w);
        if (last != s.stamp - 1) s.moved.push_back(w);
      }
    }
    engine.edge_diagonals(listed, s.edge.data());
    for (const int e : listed) {
      const std::array<Acc, 4> fresh = s.edge[e];
      for (const NodeId w : {edges[e].u, edges[e].v}) {
        for (int i = 0; i < 4; ++i) s.node[w][i] += fresh[i];
      }
    }
    assert(sums_are_exact(s, edges, active_nodes) && "a node's sums missed an edge's change");
    assert(carried_edges_are_exact(engine, s, listed) &&
           "an unlisted edge's joints differ from the side carried from the previous bit");
    for (const NodeId w : s.dirty) {
      const int k1 = range[w].hi - split[w], k0 = split[w] - range[w].lo;
      const std::array<Acc, 4>& z = s.node[w];
      s.x0[w] = (per_candidate(z[0], k0) + per_candidate(z[1], k1)) * scale;
      s.x1[w] = (per_candidate(z[2], k0) + per_candidate(z[3], k1)) * scale;
    }
    // Bit 0 lists every edge but not the nodes reset to 0 above, so it
    // re-encodes the whole tree; later bits move only `moved`.
    const auto [sum0, sum1] = j == 0 ? t.aggregate_pair(s.x0, s.x1)
                                     : t.aggregate_pair_update(s.x0, s.x1, s.moved);
    const int bit = sum0 <= sum1 ? 0 : 1;
    t.broadcast_bit(bit);
    const int side = 2 * bit;
    for (const int e : listed) {
      std::array<Acc, 4>& z = s.edge[e];
      z = {z[side], z[side + 1], z[side], z[side + 1]};
    }
    for (const NodeId w : s.dirty) {
      std::array<Acc, 4>& z = s.node[w];
      z = {z[side], z[side + 1], z[side], z[side + 1]};
      const long double x = bit ? s.x1[w] : s.x0[w];
      s.x0[w] = x;
      s.x1[w] = x;
    }
    engine.fix_next_bit(bit);
  }
}

}  // namespace

int precision_bits_for(int max_degree, int color_bits, bool avoid_mis) {
  const std::uint64_t delta = std::max(max_degree, 1);
  const std::uint64_t logc = std::max(color_bits, 1);
  std::uint64_t target = 10 * delta * logc;
  if (avoid_mis) target *= (delta + 1);
  return std::max(1, ceil_log2(target));
}

int node_sum_width(int b, int max_degree) {
  const int bits = 2 * b + bit_width_of(static_cast<std::uint64_t>(std::max(max_degree, 1)));
  if (bits <= 64) return 64;
  if (bits <= 128) return 128;
  throw std::invalid_argument("node_sum_width: precision b = " + std::to_string(b) +
                              " and max degree Delta = " + std::to_string(max_degree) + " need " +
                              std::to_string(bits) + "-bit node sums, over 128");
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
  using Sums = std::variant<SeedSums<std::uint64_t>, SeedSums<unsigned __int128>>;
  Sums sums = node_sum_width(b, delta) == 64 ? Sums(std::in_place_index<0>, n)
                                             : Sums(std::in_place_index<1>, n);

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
  std::vector<ConflictEdge> edges;

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
    std::visit(
        [&](auto& state) { fix_seed_bits(t, *engine, b, edges, active_nodes, range, split, state); },
        sums);

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
