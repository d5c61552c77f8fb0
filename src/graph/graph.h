// Undirected simple graph in CSR (compressed sparse row) form.
//
// Nodes are 0..n-1. This is the shared substrate for every simulated model
// (CONGEST, CONGESTED CLIQUE, MPC): in CONGEST the graph is both input and
// communication topology; in the clique and MPC models it is the input
// only.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dcolor {

using NodeId = std::int32_t;

class Graph {
 public:
  Graph() = default;

  // Builds from an edge list, merging duplicate edges and dropping self
  // loops. Throws std::out_of_range when n < 0 or an edge has an endpoint
  // outside [0, n).
  static Graph from_edges(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges);

  NodeId num_nodes() const { return n_; }
  std::int64_t num_edges() const { return static_cast<std::int64_t>(adj_.size()) / 2; }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }
  int degree(NodeId v) const { return static_cast<int>(offsets_[v + 1] - offsets_[v]); }
  int max_degree() const { return max_degree_; }

  bool has_edge(NodeId u, NodeId v) const;  // O(log deg(u))

  // Edges as (u,v) with u < v, in CSR order. Used by the MPC input layout.
  std::vector<std::pair<NodeId, NodeId>> edge_list() const;

 private:
  NodeId n_ = 0;
  std::vector<std::int64_t> offsets_;  // size n_+1
  std::vector<NodeId> adj_;            // sorted within each node's range
  int max_degree_ = 0;
};

// A subgraph "view" by node membership: algorithms that operate on the
// graph induced by a shrinking node set (e.g., the uncolored residual
// graph of Theorem 1.1) use this instead of materializing new graphs.
class InducedSubgraph {
 public:
  InducedSubgraph(const Graph& g, std::vector<bool> member)
      : g_(&g), member_(std::move(member)) {}

  const Graph& base() const { return *g_; }
  bool contains(NodeId v) const { return member_[v]; }
  void remove(NodeId v) { member_[v] = false; }

  int degree(NodeId v) const {
    int d = 0;
    for (NodeId u : g_->neighbors(v)) d += member_[u] ? 1 : 0;
    return d;
  }

  template <typename F>
  void for_each_neighbor(NodeId v, F&& f) const {
    for (NodeId u : g_->neighbors(v)) {
      if (member_[u]) f(u);
    }
  }

 private:
  const Graph* g_;
  std::vector<bool> member_;
};

}  // namespace dcolor
