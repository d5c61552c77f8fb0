#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

TEST(GraphIo, EdgeListRoundTrip) {
  auto g = make_gnp(30, 0.2, 4);
  std::stringstream ss;
  write_edge_list(ss, g);
  auto g2 = read_edge_list(ss);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->num_nodes(), g.num_nodes());
  EXPECT_EQ(g2->edge_list(), g.edge_list());
}

TEST(GraphIo, RejectsMalformed) {
  std::stringstream a("not a graph");
  EXPECT_FALSE(read_edge_list(a).has_value());
  std::stringstream b("3 2\n0 1\n0 9\n");  // endpoint out of range
  EXPECT_FALSE(read_edge_list(b).has_value());
  std::stringstream c("3 5\n0 1\n");  // truncated
  EXPECT_FALSE(read_edge_list(c).has_value());
}

TEST(GraphIo, RoundTripPreservesAdjacencyAcrossCorpus) {
  for (const auto& [name, g] : test::small_corpus()) {
    std::stringstream ss;
    write_edge_list(ss, g);
    auto g2 = read_edge_list(ss);
    ASSERT_TRUE(g2.has_value()) << name;
    ASSERT_EQ(g2->num_nodes(), g.num_nodes()) << name;
    EXPECT_EQ(g2->num_edges(), g.num_edges()) << name;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(g2->degree(v), g.degree(v)) << name << " node " << v;
      const auto a = g.neighbors(v);
      const auto b = g2->neighbors(v);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << name << " node " << v;
    }
  }
}

TEST(GraphIo, EdgelessRoundTrip) {
  auto g = Graph::from_edges(5, {});
  std::stringstream ss;
  write_edge_list(ss, g);
  auto g2 = read_edge_list(ss);
  ASSERT_TRUE(g2.has_value());
  EXPECT_EQ(g2->num_nodes(), 5);
  EXPECT_EQ(g2->num_edges(), 0);
}

TEST(GraphIo, RejectsMoreMalformedShapes) {
  std::stringstream a("-1 0\n");  // negative node count
  EXPECT_FALSE(read_edge_list(a).has_value());
  std::stringstream b("3 -2\n");  // negative edge count
  EXPECT_FALSE(read_edge_list(b).has_value());
  std::stringstream c("");  // empty input
  EXPECT_FALSE(read_edge_list(c).has_value());
  std::stringstream d("2 1\nx y\n");  // non-numeric endpoints
  EXPECT_FALSE(read_edge_list(d).has_value());
  std::stringstream e("4294967297 1\n0 1\n");  // n beyond the largest NodeId
  EXPECT_FALSE(read_edge_list(e).has_value());
  std::stringstream f("3 1000000000000000000\n");  // huge m, no edges follow
  EXPECT_FALSE(read_edge_list(f).has_value());
}

TEST(GraphIo, DotContainsNodesAndEdges) {
  auto g = make_cycle(4);
  std::vector<std::int64_t> colors = {0, 1, 0, 1};
  std::stringstream ss;
  write_dot(ss, g, &colors);
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("3:1"), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightgreen"), std::string::npos);
}

TEST(GraphIo, DotWithoutColors) {
  auto g = make_path(3);
  std::stringstream ss;
  write_dot(ss, g);
  EXPECT_NE(ss.str().find("1 -- 2"), std::string::npos);
}

}  // namespace
}  // namespace dcolor
