#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/properties.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

TEST(Graph, FromEdgesDedupes) {
  auto g = Graph::from_edges(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {2, 3}});
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
}

TEST(Graph, FromEdgesRejectsOutOfRangeEndpoints) {
  // Every bad endpoint throws in every build type, before any write
  // into the CSR arrays, and the message names the edge.
  for (const auto& bad : std::vector<std::pair<NodeId, NodeId>>{{0, 5}, {3, 1}, {-1, 2}, {1, -7}}) {
    try {
      Graph::from_edges(3, {{0, 1}, bad});
      ADD_FAILURE() << "accepted (" << bad.first << ", " << bad.second << ")";
    } catch (const std::out_of_range& e) {
      const std::string want =
          "(" + std::to_string(bad.first) + ", " + std::to_string(bad.second) + ")";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(Graph::from_edges(-1, {}), std::out_of_range);
  EXPECT_THROW(Graph::from_edges(0, {{0, 0}}), std::out_of_range);
  EXPECT_EQ(Graph::from_edges(0, {}).num_nodes(), 0);
  EXPECT_EQ(Graph::from_edges(3, {{2, 2}}).num_edges(), 0);  // self loop dropped
}

TEST(Graph, EdgeListRoundTrip) {
  auto g = make_cycle(5);
  auto edges = g.edge_list();
  EXPECT_EQ(edges.size(), 5u);
  auto g2 = Graph::from_edges(5, edges);
  EXPECT_EQ(g2.num_edges(), 5);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g2.degree(v), 2);
}

TEST(Generators, PathCycleStar) {
  EXPECT_EQ(make_path(10).num_edges(), 9);
  EXPECT_EQ(make_cycle(10).num_edges(), 10);
  EXPECT_EQ(make_star(10).max_degree(), 9);
  EXPECT_EQ(diameter(make_star(10)), 2);
  EXPECT_EQ(diameter(make_path(10)), 9);
}

TEST(Generators, Grid) {
  auto g = make_grid(4, 6);
  EXPECT_EQ(g.num_nodes(), 24);
  EXPECT_EQ(diameter(g), 4 - 1 + 6 - 1);
  EXPECT_LE(g.max_degree(), 4);
}

TEST(Generators, PathOfCliques) {
  auto g = make_path_of_cliques(5, 4);
  EXPECT_EQ(g.num_nodes(), 20);
  EXPECT_EQ(g.max_degree(), 4);  // clique degree 3 + 1 bridge
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(diameter(g), 5);  // grows with the number of cliques
}

TEST(Generators, CompleteBipartite) {
  auto g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_edges(), 12);
  EXPECT_EQ(diameter(g), 2);
}

TEST(Generators, BinaryTreeConnectedAcyclic) {
  auto g = make_binary_tree(31);
  EXPECT_EQ(g.num_edges(), 30);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(g.max_degree(), 3);
}

TEST(Generators, GnpSeedDeterminism) {
  auto a = make_gnp(50, 0.2, 9);
  auto b = make_gnp(50, 0.2, 9);
  auto c = make_gnp(50, 0.2, 10);
  EXPECT_EQ(a.edge_list(), b.edge_list());
  EXPECT_NE(a.edge_list(), c.edge_list());
}

TEST(Generators, NearRegularDegreeBounds) {
  auto g = make_near_regular(64, 6, 3);
  EXPECT_GT(g.num_edges(), 0);
  // Matchings+cycles: max degree stays close to requested d.
  EXPECT_LE(g.max_degree(), 6);
}

TEST(Generators, ClusteredConnected) {
  auto g = make_clustered(4, 10, 0.5, 5, 1);
  EXPECT_EQ(g.num_nodes(), 40);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, PreferentialAttachmentSkew) {
  auto g = make_preferential_attachment(200, 2, 5);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GT(g.max_degree(), 8);  // hubs emerge
}

TEST(Properties, BfsDistances) {
  auto g = make_path(6);
  auto d = bfs_distances(g, 0);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(d[i], i);
}

TEST(Properties, DoubleSweepExactOnTrees) {
  auto g = make_binary_tree(63);
  EXPECT_EQ(diameter_double_sweep(g), diameter(g));
  auto p = make_path(40);
  EXPECT_EQ(diameter_double_sweep(p), 39);
}

TEST(Properties, ComponentsAndConnectivity) {
  auto g = Graph::from_edges(6, {{0, 1}, {2, 3}, {3, 4}});
  int k = 0;
  auto comp = connected_components(g, &k);
  EXPECT_EQ(k, 3);  // {0,1}, {2,3,4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(diameter(g), -1);
}

TEST(Properties, ForEachComponentUsesLocalIds) {
  // Interleaved ids: {0,2,4} is a path 4-0-2, {1,3} an edge, {5} isolated.
  auto g = Graph::from_edges(6, {{0, 2}, {0, 4}, {1, 3}});
  std::vector<std::vector<NodeId>> globals;
  std::vector<std::int64_t> edges;
  const bool split =
      for_each_component(g, [&](const Graph& sub, const std::vector<NodeId>& global) {
        globals.push_back(global);
        edges.push_back(sub.num_edges());
        for (NodeId i = 0; i < sub.num_nodes(); ++i) {
          for (NodeId j : sub.neighbors(i)) EXPECT_TRUE(g.has_edge(global[i], global[j]));
        }
      });
  EXPECT_TRUE(split);
  EXPECT_EQ(globals, (std::vector<std::vector<NodeId>>{{0, 2, 4}, {1, 3}, {5}}));
  EXPECT_EQ(edges, (std::vector<std::int64_t>{2, 1, 0}));

  // Connected or empty graphs are left to the caller, fn never runs.
  int calls = 0;
  auto count = [&](const Graph&, const std::vector<NodeId>&) { ++calls; };
  EXPECT_FALSE(for_each_component(make_cycle(5), count));
  EXPECT_FALSE(for_each_component(Graph::from_edges(0, {}), count));
  EXPECT_EQ(calls, 0);
}

TEST(Properties, Degeneracy) {
  EXPECT_EQ(degeneracy(make_complete(5)), 4);
  EXPECT_EQ(degeneracy(make_cycle(9)), 2);
  EXPECT_EQ(degeneracy(make_binary_tree(31)), 1);
  EXPECT_EQ(degeneracy(make_star(10)), 1);
}

TEST(Properties, ProperColoringCheck) {
  auto g = make_cycle(4);
  EXPECT_TRUE(is_proper_coloring(g, {0, 1, 0, 1}));
  EXPECT_FALSE(is_proper_coloring(g, {0, 1, 1, 0}));
}

TEST(InducedSubgraphView, DegreesAndRemoval) {
  auto g = make_complete(5);
  InducedSubgraph sub = test::all_active(g);
  EXPECT_EQ(sub.degree(0), 4);
  sub.remove(4);
  EXPECT_EQ(sub.degree(0), 3);
  int count = 0;
  sub.for_each_neighbor(0, [&](NodeId) { ++count; });
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sub.contains(4));
}

}  // namespace
}  // namespace dcolor
