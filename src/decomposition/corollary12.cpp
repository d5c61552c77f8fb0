#include "src/decomposition/corollary12.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

#include "src/coloring/linial.h"
#include "src/obs/obs.h"

namespace dcolor {

ClusterGraph make_cluster_graph(const Graph& g, const Cluster& c) {
  const std::vector<NodeId>& members = c.members;
  assert(std::is_sorted(members.begin(), members.end()) && "members must be ascending");
  std::vector<NodeId> steiner;
  for (const NodeId v : c.tree_nodes) {
    if (!std::binary_search(members.begin(), members.end(), v)) steiner.push_back(v);
  }
  std::sort(steiner.begin(), steiner.end());  // a tree lists each node once
  const auto m = static_cast<NodeId>(members.size());
  // Binary search instead of an n-sized id map: O(log) per lookup and no
  // per-cluster allocation that grows with G.
  auto member_index = [&](NodeId v) -> NodeId {
    const auto it = std::lower_bound(members.begin(), members.end(), v);
    return it != members.end() && *it == v ? static_cast<NodeId>(it - members.begin()) : -1;
  };
  auto local_id = [&](NodeId v) -> NodeId {
    if (v < 0) return -1;
    const NodeId i = member_index(v);
    if (i >= 0) return i;
    const auto it = std::lower_bound(steiner.begin(), steiner.end(), v);
    return it != steiner.end() && *it == v ? m + static_cast<NodeId>(it - steiner.begin()) : -1;
  };

  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < m; ++i) {
    for (const NodeId u : g.neighbors(members[i])) {
      if (u <= members[i]) continue;
      const NodeId j = member_index(u);
      if (j >= 0) edges.emplace_back(i, j);
    }
  }
  ClusterGraph out;
  out.tree.color = c.color;
  out.tree.root = local_id(c.root);
  out.tree.tree_depth = c.tree_depth;
  out.tree.members.resize(members.size());
  std::iota(out.tree.members.begin(), out.tree.members.end(), 0);
  out.tree.tree_nodes.reserve(c.tree_nodes.size());
  out.tree.tree_parent.reserve(c.tree_parent.size());
  for (std::size_t k = 0; k < c.tree_nodes.size(); ++k) {
    const NodeId v = local_id(c.tree_nodes[k]);
    const NodeId p = local_id(c.tree_parent[k]);
    out.tree.tree_nodes.push_back(v);
    out.tree.tree_parent.push_back(p);
    // Member-member tree edges are edges of G[members] already.
    if (p >= 0 && (v >= m || p >= m) && g.has_edge(c.tree_nodes[k], c.tree_parent[k])) {
      edges.emplace_back(v, p);
    }
  }
  out.graph = Graph::from_edges(m + static_cast<NodeId>(steiner.size()), std::move(edges));
  return out;
}

void color_cluster(const Cluster& c, ColoringTransport& ct, const ListInstance& inst,
                   const LinialResult& lin, const PartialColoringOptions& opts,
                   std::vector<Color>& colors) {
  // The local ids of make_cluster_graph: members first, ascending.
  const std::vector<NodeId>& members = c.members;
  const auto m = static_cast<NodeId>(members.size());
  const Graph& local = ct.graph();
  const NodeId n = local.num_nodes();
  assert(n >= m && "the transport must run on the cluster's local graph");

  // G[members]: the local edges between members. Adjacency is ascending,
  // so a member's member neighbors precede its Steiner neighbors.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < m; ++v) {
    for (const NodeId u : local.neighbors(v)) {
      if (u >= m) break;
      if (v < u) edges.emplace_back(v, u);
    }
  }
  const Graph members_graph = Graph::from_edges(m, std::move(edges));

  std::vector<std::vector<Color>> lists(static_cast<std::size_t>(m));
  std::vector<std::int64_t> psi(static_cast<std::size_t>(n), 0);
  std::vector<bool> memb(static_cast<std::size_t>(n), false);
  for (NodeId i = 0; i < m; ++i) {
    lists[i] = inst.list(members[i]);
    psi[i] = lin.coloring[members[i]];
    memb[i] = true;
  }
  ListInstance local_inst(members_graph, inst.color_space(), std::move(lists));
  InducedSubgraph active(local, std::move(memb));
  std::vector<Color> local_colors(static_cast<std::size_t>(n), kUncolored);
  list_color_subset(ct, active, local_inst, local_colors, psi, lin.num_colors, opts);
  for (NodeId i = 0; i < m; ++i) colors[members[i]] = local_colors[i];
}

void Corollary12Transports::run_cluster_class(const std::vector<const Cluster*>& batch,
                                              const ClusterWork& work,
                                              std::vector<congest::Metrics>* out_metrics) {
  // Sequential reference semantics: one fresh transport after another, in
  // batch order. Concurrent backends override this and must produce the
  // identical out_metrics slots.
  out_metrics->assign(batch.size(), congest::Metrics{});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ColoringTransport& ct = cluster(*batch[i]);
    work(*batch[i], ct);
    (*out_metrics)[i] = ct.metrics();
  }
}

Corollary12Result corollary12_run(const Graph& g, ListInstance inst,
                                  Corollary12Transports& transports,
                                  const PartialColoringOptions& opts) {
  const NodeId n = g.num_nodes();
  Corollary12Result res;
  res.colors.assign(n, kUncolored);
  if (n == 0) return res;

  {
    obs::Span span(obs::kCatPhase, "corollary12.decompose");
    res.decomposition = decompose(g);
    span.arg("clusters", static_cast<std::int64_t>(res.decomposition.clusters.size()));
    span.arg("classes", res.decomposition.num_colors);
  }
  res.decomposition_rounds = res.decomposition.rounds_charged;
  const int kappa = std::max(1, res.decomposition.max_congestion());

  // Global input coloring (Linial over the whole graph).
  ColoringTransport& gt = transports.global();
  InducedSubgraph all(g, std::vector<bool>(n, true));
  LinialResult lin;
  {
    obs::Span span(obs::kCatPhase, "corollary12.linial");
    lin = gt.linial(all, nullptr, 0);
    span.arg("num_colors", lin.num_colors);
  }

  const int cbits = std::max(inst.color_bits(), 1);
  std::vector<bool> uncolored(n, true);
  // Rounds charged for the per-cluster runs: within a class the max over
  // its clusters, times kappa (pipelining up to kappa trees per edge).
  std::int64_t cluster_rounds = 0;
  congest::Metrics traffic;  // messages/bits of every transport, summed

  // Pruning-exchange buffers (global transport), reused across classes.
  std::vector<std::vector<NodeId>> targets(n);
  std::vector<char> senders(n, 0);
  std::vector<std::uint64_t> payloads(n, 0);
  std::vector<std::vector<NodeId>> heard(n);

  for (int k = 0; k < res.decomposition.num_colors; ++k) {
    std::vector<const Cluster*> batch;
    for (const Cluster& c : res.decomposition.clusters) {
      if (c.color == k) batch.push_back(&c);
    }
    // Hand the whole class to the backend at once: same-class clusters
    // are non-adjacent, so the per-cluster runs write disjoint entries of
    // `colors` and only read state no concurrent run mutates (g, inst,
    // lin, opts) — a backend may execute them on concurrent simulators.
    // The per-class cost stays the max over clusters times the
    // congestion factor.
    std::vector<congest::Metrics> cluster_metrics;
    {
      // Span scoped to the cluster runs only: the pruning exchange below
      // gets its own phase span, and two live cat="phase" spans on one
      // thread would double-charge the breakdown.
      obs::Span class_span(obs::kCatPhase, "corollary12.class");
      class_span.arg("class", k);
      class_span.arg("clusters", static_cast<std::int64_t>(batch.size()));
      transports.run_cluster_class(
          batch,
          [&](const Cluster& c, ColoringTransport& ct) {
            // kCatCluster (not kCatPhase): cluster spans nest inside the
            // class span and run concurrently on worker threads — counting
            // them in the phase breakdown would double-charge the class.
            obs::Span cluster_span(obs::kCatCluster, "corollary12.cluster");
            cluster_span.arg("class", c.color);
            cluster_span.arg("root", c.root);
            cluster_span.arg("members", static_cast<std::int64_t>(c.members.size()));
            if (cluster_span.live()) {
              // Cluster-size distribution: recorded on whichever worker
              // runs the cluster, but the multiset of sizes is fixed by
              // the decomposition — the merged histogram is identical at
              // every thread count.
              obs::value(obs::kCatMetric, "corollary12.cluster_members",
                         static_cast<std::int64_t>(c.members.size()));
            }
            color_cluster(c, ct, inst, lin, opts, res.colors);
          },
          &cluster_metrics);
    }

    std::int64_t max_cluster_rounds = 0;
    std::vector<NodeId> class_nodes;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const congest::Metrics& cm = cluster_metrics[i];
      max_cluster_rounds = std::max(max_cluster_rounds, cm.rounds);
      traffic.messages += cm.messages;
      traffic.total_bits += cm.total_bits;
      traffic.max_message_bits = std::max(traffic.max_message_bits, cm.max_message_bits);
      class_nodes.insert(class_nodes.end(), batch[i]->members.begin(),
                         batch[i]->members.end());
    }
    cluster_rounds += kappa * max_cluster_rounds;

    // Cross-cluster pruning (one global round): freshly colored nodes
    // announce their color to every neighbor; uncolored neighbors outside
    // the cluster drop it from their lists.
    obs::Span prune_span(obs::kCatPhase, "corollary12.prune");
    prune_span.arg("class", k);
    prune_span.arg("colored", static_cast<std::int64_t>(class_nodes.size()));
    for (NodeId v : class_nodes) {
      uncolored[v] = false;
      senders[v] = 1;
      payloads[v] = static_cast<std::uint64_t>(res.colors[v]);
      const auto nb = g.neighbors(v);
      targets[v].assign(nb.begin(), nb.end());
    }
    gt.exchange_along(targets, senders, payloads, cbits, &heard);
    for (NodeId v = 0; v < n; ++v) {
      if (!uncolored[v]) continue;
      for (NodeId u : heard[v]) inst.remove_color(v, res.colors[u]);
    }
    for (NodeId v : class_nodes) {
      senders[v] = 0;
      targets[v].clear();
    }
  }
  res.coloring_rounds = gt.metrics().rounds + cluster_rounds;
  res.total_rounds = res.decomposition_rounds + res.coloring_rounds;
  traffic.messages += gt.metrics().messages;
  traffic.total_bits += gt.metrics().total_bits;
  traffic.max_message_bits = std::max(traffic.max_message_bits, gt.metrics().max_message_bits);
  res.metrics = traffic;
  res.metrics.rounds = res.total_rounds;
  return res;
}

namespace {

// Sequential reference backend: a congest::Network over the whole graph
// for the global phases, and one over each cluster's local graph, built
// as the cluster comes up; the clusters run one after another.
class NetworkCorollary12Transports final : public Corollary12Transports {
 public:
  NetworkCorollary12Transports(const Graph& g, int bandwidth_bits)
      : g_(&g), global_(g, bandwidth_bits) {}

  ColoringTransport& global() override { return global_; }

  ColoringTransport& cluster(const Cluster& c) override {
    cluster_.emplace(*g_, c, global_.bandwidth_bits());
    return cluster_->transport;
  }

 private:
  const Graph* g_;
  runtime::NetworkColoringTransport global_;
  std::optional<ClusterTransport<congest::Network>> cluster_;
};

}  // namespace

Corollary12Result corollary12_solve(const Graph& g, ListInstance inst,
                                    const PartialColoringOptions& opts) {
  NetworkCorollary12Transports transports(g, opts.bandwidth_bits);
  return corollary12_run(g, std::move(inst), transports, opts);
}

}  // namespace dcolor
