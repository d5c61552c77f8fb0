// Network decomposition (Definition 3.1) invariants and Corollary 1.2
// end-to-end coloring.
#include <gtest/gtest.h>

#include <algorithm>
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
    EXPECT_LE(d.max_congestion(), static_cast<int>(4 * logn) + 4) << name;
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

// The golden corpus: the pinned Corollary 1.2 input (perfbench's
// c12-clusters graph), a long grid, and one graph of three random families.
std::vector<test::NamedGraph> golden_graphs() {
  return {{"clustered", make_clustered(128, 24, 0.35, 16, 1)},
          {"grid4x1024", make_grid(4, 1024)},
          {"gnp", make_gnp(400, 0.02, test::kTestSeed)},
          {"powerlaw", make_powerlaw(500, 2.5, test::kTestSeed)},
          {"nearreg", make_near_regular(400, 6, test::kTestSeed)}};
}

// Every output of decompose in one checksum: each cluster's color, root,
// members (sorted, so the pin is independent of member order), tree
// nodes, tree parents and tree depth, then cluster_of, num_colors,
// rounds_charged and max_congestion.
std::uint64_t decomposition_checksum(const NetworkDecomposition& d) {
  std::vector<std::int64_t> v;
  for (const Cluster& c : d.clusters) {
    std::vector<NodeId> members(c.members);
    std::sort(members.begin(), members.end());
    v.push_back(c.color);
    v.push_back(c.root);
    v.push_back(static_cast<std::int64_t>(members.size()));
    v.insert(v.end(), members.begin(), members.end());
    v.push_back(static_cast<std::int64_t>(c.tree_nodes.size()));
    v.insert(v.end(), c.tree_nodes.begin(), c.tree_nodes.end());
    v.insert(v.end(), c.tree_parent.begin(), c.tree_parent.end());
    v.push_back(c.tree_depth);
  }
  v.insert(v.end(), d.cluster_of.begin(), d.cluster_of.end());
  v.push_back(d.num_colors);
  v.push_back(d.rounds_charged);
  v.push_back(d.max_congestion());
  return benchkit::checksum_values(v);
}

// Reference outputs of decompose, pinned so that a rewrite that still
// satisfies Definition 3.1 but moves one cluster, tree edge or charged
// round fails.
TEST(Decomposition, GoldenOutputs) {
  struct Pin {
    std::uint64_t checksum;
    std::size_t clusters;
    int num_colors;
    std::int64_t rounds_charged;
    int max_congestion;
  };
  const std::vector<Pin> pins = {
      {0x4583e59ab79259d2ull, 94, 2, 264, 2},   // clustered
      {0x1d2b8d49555babd8ull, 65, 2, 284, 2},   // grid4x1024
      {0xcad722f3f5f97600ull, 16, 2, 140, 1},   // gnp
      {0xe9781ec4e66a4b89ull, 43, 2, 144, 1},   // powerlaw
      {0x089c4c45f9a978edull, 11, 2, 168, 1},   // nearreg
  };
  const std::vector<test::NamedGraph> graphs = golden_graphs();
  ASSERT_EQ(graphs.size(), pins.size());
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& [name, g] = graphs[i];
    const NetworkDecomposition d = decompose(g);
    EXPECT_EQ(decomposition_checksum(d), pins[i].checksum) << name;
    EXPECT_EQ(d.clusters.size(), pins[i].clusters) << name;
    EXPECT_EQ(d.num_colors, pins[i].num_colors) << name;
    EXPECT_EQ(d.rounds_charged, pins[i].rounds_charged) << name;
    EXPECT_EQ(d.max_congestion(), pins[i].max_congestion) << name;
  }
}

// Cluster::members is ascending, which make_cluster_graph and
// color_cluster rely on to number members without re-sorting.
TEST(Decomposition, MembersAscending) {
  std::vector<test::NamedGraph> graphs = golden_graphs();
  for (auto& named : decomposition_graphs()) graphs.push_back(std::move(named));
  for (const auto& [name, g] : graphs) {
    for (const Cluster& c : decompose(g).clusters) {
      EXPECT_TRUE(std::is_sorted(c.members.begin(), c.members.end()))
          << name << ": cluster rooted at " << c.root;
    }
  }
}

// validate_decomposition checks the tree shape bind_cluster_tree relies
// on. Three doctored copies of a real decomposition, one per defect, are
// each rejected with its reason; the real outputs pass.
TEST(Decomposition, ValidateRejectsMalformedTrees) {
  std::string why;
  for (const auto& [name, g] : golden_graphs()) {
    EXPECT_TRUE(validate_decomposition(g, decompose(g), &why)) << name << ": " << why;
  }
  const Graph g = make_clustered(128, 24, 0.35, 16, 1);
  const NetworkDecomposition good = decompose(g);
  // The deepest tree: it has a node whose parent is not the root.
  std::size_t deep = 0;
  for (std::size_t i = 0; i < good.clusters.size(); ++i) {
    if (good.clusters[i].tree_depth > good.clusters[deep].tree_depth) deep = i;
  }
  ASSERT_GE(good.clusters[deep].tree_depth, 2);

  struct Defect {
    const char* reason;
    void (*apply)(Cluster*);
  };
  const Defect defects[] = {
      // A non-root node listed a second time, with the same parent.
      {"tree lists a node twice",
       [](Cluster* t) {
         t->tree_nodes.push_back(t->tree_nodes[1]);
         t->tree_parent.push_back(t->tree_parent[1]);
       }},
      // The one parentless node is no longer the declared root.
      {"parentless tree node is not the root", [](Cluster* t) { t->root = t->tree_nodes[1]; }},
      // A depth-2 node's parent moved to the end of the list.
      {"listed after its child",
       [](Cluster* t) {
         std::size_t k = 1;
         while (t->tree_parent[k] == t->root) ++k;
         const auto at = std::find(t->tree_nodes.begin(), t->tree_nodes.end(), t->tree_parent[k]) -
                         t->tree_nodes.begin();
         std::rotate(t->tree_nodes.begin() + at, t->tree_nodes.begin() + at + 1,
                     t->tree_nodes.end());
         std::rotate(t->tree_parent.begin() + at, t->tree_parent.begin() + at + 1,
                     t->tree_parent.end());
       }},
  };
  for (const Defect& defect : defects) {
    NetworkDecomposition bad = good;
    defect.apply(&bad.clusters[deep]);
    why.clear();
    EXPECT_FALSE(validate_decomposition(g, bad, &why)) << defect.reason;
    EXPECT_NE(why.find(defect.reason), std::string::npos) << defect.reason << " vs " << why;
  }
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
       {6945496203001865173ull, 68, 4760, 4828, 4828, 24586, 354442, 28}},
      {"clustered_b12", clustered, 12,
       {6945496203001865173ull, 68, 6536, 6604, 6604, 24586, 169738, 12}},
      {"grid6x7", grid, 0,
       {11486874383797544485ull, 120, 3060, 3180, 3180, 13870, 200440, 28}},
      {"grid6x7_b12", grid, 12,
       {11486874383797544485ull, 120, 4266, 4386, 4386, 13870, 95448, 12}},
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
