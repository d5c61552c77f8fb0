// Network decomposition (Definition 3.1) invariants and Corollary 1.2
// end-to-end coloring.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/benchkit/verify.h"
#include "src/decomposition/corollary12.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/runtime/coloring_transport.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

// The shared stress corpus already covers every family the decomposition
// bounds care about (cycle/grid/gnp/tree/cliquepath/clustered/star/
// complete/near-regular); a long path is the one shape it lacks.
std::vector<test::NamedGraph> decomposition_graphs() {
  std::vector<test::NamedGraph> v = test::stress_corpus();
  v.push_back({"path64", make_path(64)});
  return v;
}

TEST(Decomposition, SatisfiesDefinition31) {
  for (auto& [name, g] : decomposition_graphs()) {
    auto d = decompose(g);
    std::string why;
    EXPECT_TRUE(validate_decomposition(g, d, &why)) << name << ": " << why;
  }
}

TEST(Decomposition, ParametersArePolylog) {
  for (auto& [name, g] : decomposition_graphs()) {
    auto d = decompose(g);
    const double logn = std::log2(std::max(4, g.num_nodes()));
    // alpha = O(log n): deletions halve the remaining set each phase.
    EXPECT_LE(d.num_colors, static_cast<int>(2 * logn) + 2) << name;
    // beta = O(log^2 n) tree depth (diameter <= 2*depth).
    EXPECT_LE(d.max_tree_depth(), static_cast<int>(4 * logn * logn) + 4) << name;
    // kappa = O(log n).
    EXPECT_LE(d.max_congestion(g), static_cast<int>(4 * logn) + 4) << name;
  }
}

TEST(Decomposition, SingletonAndEmptyGraphs) {
  auto g1 = Graph::from_edges(1, {});
  auto d1 = decompose(g1);
  std::string why;
  EXPECT_TRUE(validate_decomposition(g1, d1, &why)) << why;
  EXPECT_EQ(d1.num_colors, 1);

  auto g0 = Graph::from_edges(0, {});
  auto d0 = decompose(g0);
  EXPECT_EQ(d0.clusters.size(), 0u);
}

TEST(Decomposition, EdgelessGraphOneColor) {
  auto g = Graph::from_edges(10, {});
  auto d = decompose(g);
  std::string why;
  EXPECT_TRUE(validate_decomposition(g, d, &why)) << why;
  EXPECT_EQ(d.num_colors, 1);  // no adjacency, nothing ever deleted
  EXPECT_EQ(d.clusters.size(), 10u);
}

TEST(Decomposition, DeterministicRerun) {
  auto g = make_gnp(80, 0.06, 5);
  auto d1 = decompose(g);
  auto d2 = decompose(g);
  EXPECT_EQ(d1.num_colors, d2.num_colors);
  EXPECT_EQ(d1.cluster_of, d2.cluster_of);
  EXPECT_EQ(d1.rounds_charged, d2.rounds_charged);
}

TEST(Corollary12, ColorsAllFamilies) {
  for (auto& [name, g] : decomposition_graphs()) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    auto res = corollary12_solve(g, std::move(inst));
    EXPECT_TRUE(pristine.valid_solution(res.colors)) << name;
  }
}

TEST(Corollary12, RandomLists) {
  auto g = make_clustered(5, 10, 0.3, 6, 9);
  auto inst = ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 31);
  const ListInstance pristine = inst;
  auto res = corollary12_solve(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

TEST(Corollary12, RoundsIndependentOfDiameterShape) {
  // The whole point of Corollary 1.2: on a long path (D = n-1), rounds
  // must be polylog, not ~D * polylog.
  auto path = make_path(512);
  auto res = corollary12_solve(path, ListInstance::delta_plus_one(path));
  const double logn = std::log2(512);
  // generous polylog budget: c * log^5 n
  EXPECT_LT(res.total_rounds, static_cast<std::int64_t>(40 * std::pow(logn, 5)));
  // ... and it must decisively beat the diameter-time algorithm here.
  auto t11 = theorem11_solve(path, ListInstance::delta_plus_one(path));
  EXPECT_LT(res.total_rounds, t11.metrics.rounds / 4);
}

TEST(ClusterTreeTest, AggregatesOverTree) {
  auto g = make_path(6);
  auto d = decompose(g);
  // Find the largest cluster and aggregate over its tree.
  const Cluster* big = &d.clusters[0];
  for (const auto& c : d.clusters) {
    if (c.members.size() > big->members.size()) big = &c;
  }
  congest::Network net(g);
  runtime::NetworkColoringTransport t(net);
  t.bind_cluster(*big);
  std::vector<long double> v0(6, 0.0L), v1(6, 0.0L);
  long double e0 = 0, e1 = 0;
  for (NodeId v : big->tree_nodes) {
    v0[v] = 0.25L * (v + 1);
    v1[v] = 0.5L;
    e0 += v0[v];
    e1 += v1[v];
  }
  auto [s0, s1] = t.aggregate_pair(v0, v1);
  EXPECT_NEAR(static_cast<double>(s0), static_cast<double>(e0), 1e-8);
  EXPECT_NEAR(static_cast<double>(s1), static_cast<double>(e1), 1e-8);
  t.broadcast_bit(1);  // must not throw / violate bandwidth
}

// Reference outputs and charges of the sequential Corollary 1.2 solver,
// pinned so that a slip shared by both backends (which the Network-vs-
// engine parity suites cannot see) still fails: colours, the split of
// charged rounds, and the full Metrics, at the default bandwidth and at
// B = 12 (multi-chunk pipelining on every cluster-tree wave).
TEST(Corollary12Golden, ReferenceOutputsAndCharges) {
  struct Pin {
    std::uint64_t colors_hash;
    std::int64_t decomposition_rounds;
    std::int64_t coloring_rounds;
    std::int64_t total_rounds;
    std::int64_t rounds;
    std::int64_t messages;
    std::int64_t total_bits;
    int max_message_bits;
  };
  struct Case {
    std::string name;
    Graph g;
    int bandwidth_bits;
    Pin pin;
  };
  const Graph clustered = make_clustered(4, 10, 0.5, 8, test::kTestSeed + 3);
  const Graph grid = make_grid(6, 7);
  const std::vector<Case> cases = {
      {"clustered", clustered, 0,
       {6945496203001865173ull, 68, 5064, 5132, 5132, 26068, 364387, 28}},
      {"clustered_b12", clustered, 12,
       {6945496203001865173ull, 68, 6954, 7022, 7022, 26068, 167827, 12}},
      {"grid6x7", grid, 0,
       {11486874383797544485ull, 120, 5196, 5316, 5316, 18106, 255300, 28}},
      {"grid6x7_b12", grid, 12,
       {11486874383797544485ull, 120, 7716, 7836, 7836, 18106, 116420, 12}},
  };
  for (const Case& c : cases) {
    PartialColoringOptions opts;
    opts.bandwidth_bits = c.bandwidth_bits;
    const Corollary12Result res = corollary12_solve(
        c.g, ListInstance::random_lists(c.g, 2 * (c.g.max_degree() + 1), 13), opts);
    const Pin& want = c.pin;
    EXPECT_EQ(benchkit::checksum_values(res.colors), want.colors_hash) << c.name;
    EXPECT_EQ(res.decomposition_rounds, want.decomposition_rounds) << c.name;
    EXPECT_EQ(res.coloring_rounds, want.coloring_rounds) << c.name;
    EXPECT_EQ(res.total_rounds, want.total_rounds) << c.name;
    EXPECT_EQ(res.metrics.rounds, want.rounds) << c.name;
    EXPECT_EQ(res.metrics.messages, want.messages) << c.name;
    EXPECT_EQ(res.metrics.total_bits, want.total_bits) << c.name;
    EXPECT_EQ(res.metrics.max_message_bits, want.max_message_bits) << c.name;
  }
}

}  // namespace
}  // namespace dcolor
