#include "src/graph/properties.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace dcolor {

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  std::vector<int> dist(g.num_nodes(), -1);
  std::queue<NodeId> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (NodeId u : g.neighbors(v)) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        q.push(u);
      }
    }
  }
  return dist;
}

int diameter(const Graph& g) {
  int diam = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto dist = bfs_distances(g, v);
    for (int d : dist) {
      if (d < 0) return -1;
      diam = std::max(diam, d);
    }
  }
  return diam;
}

int diameter_double_sweep(const Graph& g) {
  if (g.num_nodes() == 0) return 0;
  auto d0 = bfs_distances(g, 0);
  NodeId far = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (d0[v] > d0[far]) far = v;
  }
  auto d1 = bfs_distances(g, far);
  int best = 0;
  for (int d : d1) best = std::max(best, d);
  return best;
}

std::vector<int> connected_components(const Graph& g, int* num_components) {
  std::vector<int> comp(g.num_nodes(), -1);
  int k = 0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (comp[s] >= 0) continue;
    std::queue<NodeId> q;
    comp[s] = k;
    q.push(s);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      for (NodeId u : g.neighbors(v)) {
        if (comp[u] < 0) {
          comp[u] = k;
          q.push(u);
        }
      }
    }
    ++k;
  }
  if (num_components != nullptr) *num_components = k;
  return comp;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  int k = 0;
  connected_components(g, &k);
  return k == 1;
}

bool for_each_component(
    const Graph& g,
    const std::function<void(const Graph& sub, const std::vector<NodeId>& global)>& fn) {
  int num_comp = 0;
  const std::vector<int> comp = connected_components(g, &num_comp);
  if (num_comp <= 1) return false;

  // Members ascending per component; a node's local id is its rank there.
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(num_comp));
  std::vector<NodeId> local(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    local[v] = static_cast<NodeId>(members[comp[v]].size());
    members[comp[v]].push_back(v);
  }
  for (const std::vector<NodeId>& global : members) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId v : global) {
      for (NodeId u : g.neighbors(v)) {
        if (v < u) edges.emplace_back(local[v], local[u]);
      }
    }
    fn(Graph::from_edges(static_cast<NodeId>(global.size()), std::move(edges)), global);
  }
  return true;
}

int degeneracy(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<int> deg(n);
  std::vector<bool> removed(n, false);
  int maxdeg = 0;
  for (NodeId v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    maxdeg = std::max(maxdeg, deg[v]);
  }
  // Bucket peeling in O(n + m).
  std::vector<std::vector<NodeId>> buckets(maxdeg + 1);
  for (NodeId v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  int degen = 0;
  int cur = 0;
  for (NodeId processed = 0; processed < n;) {
    while (cur <= maxdeg && buckets[cur].empty()) ++cur;
    if (cur > maxdeg) break;
    const NodeId v = buckets[cur].back();
    buckets[cur].pop_back();
    if (removed[v] || deg[v] != cur) continue;  // stale bucket entry
    removed[v] = true;
    ++processed;
    degen = std::max(degen, cur);
    for (NodeId u : g.neighbors(v)) {
      if (!removed[u]) {
        --deg[u];
        buckets[std::max(deg[u], 0)].push_back(u);
        cur = std::min(cur, deg[u]);
      }
    }
  }
  return degen;
}

bool is_proper_coloring(const Graph& g, const std::vector<int>& colors) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (colors[u] == colors[v]) return false;
    }
  }
  return true;
}

}  // namespace dcolor
