#include "src/graph/graph.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dcolor {

Graph Graph::from_edges(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges) {
  if (n < 0) {
    throw std::out_of_range("Graph::from_edges: negative node count " + std::to_string(n));
  }
  // Check endpoints, normalize, dedupe, drop self loops.
  for (auto& [u, v] : edges) {
    if (u < 0 || u >= n || v < 0 || v >= n) {
      throw std::out_of_range("Graph::from_edges: edge (" + std::to_string(u) + ", " +
                              std::to_string(v) + ") has an endpoint outside [0, " +
                              std::to_string(n) + ")");
    }
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::erase_if(edges, [](const auto& e) { return e.first == e.second; });

  Graph g;
  g.n_ = n;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (NodeId v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adj_.resize(static_cast<std::size_t>(g.offsets_[n]));
  std::vector<std::int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    g.adj_[cursor[u]++] = v;
    g.adj_[cursor[v]++] = u;
  }
  for (NodeId v = 0; v < n; ++v) {
    auto begin = g.adj_.begin() + g.offsets_[v];
    auto end = g.adj_.begin() + g.offsets_[v + 1];
    std::sort(begin, end);
    g.max_degree_ = std::max(g.max_degree_, static_cast<int>(end - begin));
  }
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(static_cast<std::size_t>(num_edges()));
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

}  // namespace dcolor
