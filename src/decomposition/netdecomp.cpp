#include "src/decomposition/netdecomp.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>

#include "src/util/bits.h"

namespace dcolor {

int NetworkDecomposition::max_tree_depth() const {
  int d = 0;
  for (const Cluster& c : clusters) d = std::max(d, c.tree_depth);
  return d;
}

int NetworkDecomposition::max_congestion() const {
  // Every tree edge as (color, min end, max end); sorted, the longest run
  // of equal entries is the most same-color trees sharing one edge.
  std::vector<std::array<NodeId, 3>> edges;
  for (const Cluster& c : clusters) {
    for (std::size_t i = 0; i < c.tree_nodes.size(); ++i) {
      const NodeId v = c.tree_nodes[i];
      const NodeId p = c.tree_parent[i];
      if (p >= 0) edges.push_back({c.color, std::min(v, p), std::max(v, p)});
    }
  }
  std::sort(edges.begin(), edges.end());
  int best = 0;
  for (std::size_t i = 0, run = 0; i < edges.size(); ++i) {
    run = i > 0 && edges[i] == edges[i - 1] ? run + 1 : 1;
    best = std::max(best, static_cast<int>(run));
  }
  return best;
}

// A phase cluster is named by its root, whose id is also its label. Every
// join appends a fresh tree entry, because a node never rejoins a cluster
// it left within one phase:
// - during bit j, adjacent active nodes in different clusters agree on
//   label bits < j;
// - after bit j they also agree on bit j: every active blue node next to
//   a red cluster that is still growing makes a request, so it is
//   absorbed or deleted before the bit ends;
// - so a node that left cluster A at bit j1 is afterwards always in a
//   cluster whose bit j1 is 1, while A's bit j1 is 0, and it is never
//   next to a member of A again in that phase.
// validate_decomposition rejects a tree that lists a node twice.
NetworkDecomposition decompose(const Graph& g) {
  const NodeId n = g.num_nodes();
  NetworkDecomposition out;
  out.cluster_of.assign(n, -1);
  if (n == 0) return out;

  const int b = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));  // label bits
  std::vector<NodeId> cl(n);        // node -> root of its cluster; -1 when not active
  std::vector<int> depth(n);        // node -> depth in its cluster's growth tree
  std::vector<NodeId> size(n);      // root -> active members
  std::vector<char> growing(n);     // root -> still growing in the current bit
  std::vector<int> slot(n);         // root -> index of its harvested cluster
  struct Join {
    NodeId root, node, parent;
    int depth;
  };
  std::vector<std::array<NodeId, 3>> requests;  // (root, requester, via)
  std::vector<Join> joins;                      // this phase's tree edges
  NodeId remaining = n;
  int phase = 0;

  while (remaining > 0) {
    // Every node not yet in a final cluster starts as a singleton.
    for (NodeId v = 0; v < n; ++v) {
      const bool living = out.cluster_of[v] < 0;
      cl[v] = living ? v : -1;
      depth[v] = 0;
      size[v] = living ? 1 : 0;
    }
    joins.clear();

    for (int j = 0; j < b; ++j) {
      auto red = [j](NodeId root) { return (root >> j & 1) != 0; };
      for (NodeId r = 0; r < n; ++r) growing[r] = size[r] > 0;
      bool any_growth = true;
      while (any_growth) {
        any_growth = false;
        out.rounds_charged += 4;  // request/grant/join/label rounds

        // Each active blue node next to a growing red cluster requests the
        // one with the smallest label, via its first neighbor in it.
        requests.clear();
        for (NodeId v = 0; v < n; ++v) {
          if (cl[v] < 0 || red(cl[v])) continue;
          NodeId best = -1;
          NodeId via = -1;
          for (const NodeId u : g.neighbors(v)) {
            const NodeId r = cl[u];
            if (r < 0 || !red(r) || !growing[r]) continue;
            if (best < 0 || r < best) {
              best = r;
              via = u;
            }
          }
          if (best >= 0) requests.push_back({best, v, via});
        }
        std::sort(requests.begin(), requests.end());

        // Each requested cluster, root ascending, absorbs its requesters
        // (grows a layer) or stops and deletes them (deferred to the next
        // phase). Only blue nodes move, so a red cluster's size is
        // unaffected by the clusters decided before it.
        for (std::size_t i = 0; i < requests.size();) {
          const NodeId r = requests[i][0];
          std::size_t end = i;
          while (end < requests.size() && requests[end][0] == r) ++end;
          const bool grow = (end - i) * 2 * static_cast<std::size_t>(b) >=
                            static_cast<std::size_t>(size[r]);
          any_growth |= grow;
          growing[r] = grow;
          for (; i < end; ++i) {
            const NodeId v = requests[i][1];
            const NodeId via = requests[i][2];
            --size[cl[v]];
            if (grow) {
              cl[v] = r;
              ++size[r];
              depth[v] = depth[via] + 1;
              joins.push_back({r, v, via, depth[v]});
            } else {
              cl[v] = -1;
            }
          }
        }
      }
    }

    // Harvest: the surviving clusters, root ascending, get this phase's
    // color. A tree is its root, then its joins in the order they happened.
    std::stable_sort(joins.begin(), joins.end(),
                     [](const Join& x, const Join& y) { return x.root < y.root; });
    auto join = joins.begin();
    for (NodeId r = 0; r < n; ++r) {
      if (size[r] == 0) continue;
      slot[r] = static_cast<int>(out.clusters.size());
      Cluster& c = out.clusters.emplace_back();
      c.color = phase;
      c.root = r;
      c.members.reserve(static_cast<std::size_t>(size[r]));
      c.tree_nodes = {r};
      c.tree_parent = {-1};
      for (; join != joins.end() && join->root <= r; ++join) {
        if (join->root < r) continue;  // a cluster that died out
        c.tree_nodes.push_back(join->node);
        c.tree_parent.push_back(join->parent);
        c.tree_depth = std::max(c.tree_depth, join->depth);
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (cl[v] < 0) continue;
      out.cluster_of[v] = slot[cl[v]];
      out.clusters[slot[cl[v]]].members.push_back(v);
      --remaining;
    }
    ++phase;
    assert(phase <= 2 * b + 2 && "phases must stay logarithmic");
  }
  out.num_colors = phase;
  return out;
}

bool validate_decomposition(const Graph& g, const NetworkDecomposition& d, std::string* why) {
  const NodeId n = g.num_nodes();
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  auto in_range = [n](NodeId v) { return v >= 0 && v < n; };
  if (d.cluster_of.size() != static_cast<std::size_t>(n)) return fail("cluster_of has wrong size");
  // Partition, with ascending members.
  std::vector<int> seen(n, -1);
  for (std::size_t i = 0; i < d.clusters.size(); ++i) {
    const std::vector<NodeId>& members = d.clusters[i].members;
    for (std::size_t k = 0; k < members.size(); ++k) {
      const NodeId v = members[k];
      if (!in_range(v)) return fail("member out of range");
      if (seen[v] != -1) return fail("node in two clusters");
      if (k > 0 && members[k - 1] > v) return fail("members not ascending");
      seen[v] = static_cast<int>(i);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (seen[v] < 0) return fail("node in no cluster");
    if (d.cluster_of[v] != seen[v]) return fail("cluster_of inconsistent");
  }
  // Trees: stamp[v] == i + 1 iff v is listed in cluster i's tree so far,
  // one array for all clusters instead of an n-sized one per cluster.
  std::vector<std::size_t> stamp(n, 0);
  for (std::size_t i = 0; i < d.clusters.size(); ++i) {
    const Cluster& c = d.clusters[i];
    const std::size_t mark = i + 1;
    if (c.color < 0 || c.color >= d.num_colors) return fail("bad color");
    if (c.tree_parent.size() != c.tree_nodes.size()) return fail("tree arrays differ in length");
    if (c.tree_nodes.empty()) return fail("empty tree");
    // The shape bind_cluster_tree relies on: each node listed once, the
    // root the only parentless node, every parent listed before its child.
    for (std::size_t k = 0; k < c.tree_nodes.size(); ++k) {
      const NodeId v = c.tree_nodes[k];
      const NodeId p = c.tree_parent[k];
      if (!in_range(v) || p >= n) return fail("tree node out of range");
      if (stamp[v] == mark) return fail("tree lists a node twice");
      if (p < 0) {
        if (v != c.root) return fail("parentless tree node is not the root");
      } else {
        if (stamp[p] != mark) return fail("parent missing from tree or listed after its child");
        if (!g.has_edge(v, p)) return fail("tree edge not a G edge");
      }
      stamp[v] = mark;
    }
    // (i) the tree contains every member.
    for (NodeId v : c.members) {
      if (stamp[v] != mark) return fail("member missing from tree");
    }
  }
  // (iii) adjacent clusters have different colors.
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (d.cluster_of[u] != d.cluster_of[v] &&
          d.clusters[d.cluster_of[u]].color == d.clusters[d.cluster_of[v]].color) {
        return fail("adjacent clusters share a color");
      }
    }
  }
  return true;
}

}  // namespace dcolor
