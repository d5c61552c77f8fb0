// Network-decomposition explorer: run the Rozhoň–Ghaffari-style
// clustering on a chosen topology and print the clusters, their trees and
// the Definition 3.1 quality parameters.
//
//   ./decomposition_explorer [topology] [n]
//   topology: path | cycle | grid | tree | clustered (default)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"

int main(int argc, char** argv) {
  using namespace dcolor;
  const char* topo = argc > 1 ? argv[1] : "clustered";
  const int n = argc > 2 ? std::atoi(argv[2]) : 200;

  Graph g;
  if (std::strcmp(topo, "path") == 0) {
    g = make_path(n);
  } else if (std::strcmp(topo, "cycle") == 0) {
    g = make_cycle(n);
  } else if (std::strcmp(topo, "grid") == 0) {
    const int side = std::max(2, static_cast<int>(std::sqrt(static_cast<double>(n))));
    g = make_grid(side, side);
  } else if (std::strcmp(topo, "tree") == 0) {
    g = make_binary_tree(n);
  } else {
    g = make_clustered(std::max(2, n / 25), 25, 0.4, n / 10, 3);
  }
  std::printf("topology %s: n=%d, m=%lld, D=%d\n", topo, g.num_nodes(),
              static_cast<long long>(g.num_edges()), diameter_double_sweep(g));

  NetworkDecomposition d = decompose(g);
  std::string why;
  std::printf("valid per Definition 3.1: %s%s\n", validate_decomposition(g, d, &why) ? "yes" : "NO — ",
              why.c_str());
  std::printf("alpha (colors): %d   beta (max tree depth): %d   kappa (congestion): %d\n",
              d.num_colors, d.max_tree_depth(), d.max_congestion());
  std::printf("charged construction rounds: %lld\n\n",
              static_cast<long long>(d.rounds_charged));

  // Per-color summary.
  for (int c = 0; c < d.num_colors; ++c) {
    int clusters = 0;
    std::size_t nodes = 0;
    std::size_t largest = 0;
    int deepest = 0;
    for (const Cluster& cl : d.clusters) {
      if (cl.color != c) continue;
      ++clusters;
      nodes += cl.members.size();
      largest = std::max(largest, cl.members.size());
      deepest = std::max(deepest, cl.tree_depth);
    }
    std::printf("color %d: %4d clusters, %5zu nodes, largest=%zu, deepest tree=%d\n", c,
                clusters, nodes, largest, deepest);
  }

  // The five largest clusters in detail.
  std::vector<const Cluster*> by_size;
  for (const Cluster& cl : d.clusters) by_size.push_back(&cl);
  std::sort(by_size.begin(), by_size.end(),
            [](const Cluster* a, const Cluster* b) { return a->members.size() > b->members.size(); });
  std::printf("\nlargest clusters:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, by_size.size()); ++i) {
    const Cluster* cl = by_size[i];
    std::printf("  root=%-5d color=%-2d members=%-4zu tree_nodes=%-4zu (Steiner: %zu) depth=%d\n",
                cl->root, cl->color, cl->members.size(), cl->tree_nodes.size(),
                cl->tree_nodes.size() - cl->members.size(), cl->tree_depth);
  }
  return 0;
}
