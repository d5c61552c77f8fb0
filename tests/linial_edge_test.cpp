// Edge cases and property sweeps for Linial's algorithm, list instances
// and the seed-fixing ops — the corners the main suites skip.
#include <gtest/gtest.h>

#include "src/coloring/derand_channel.h"
#include "src/coloring/linial.h"
#include "src/coloring/theorem11.h"
#include "src/congest/tree.h"
#include "src/graph/generators.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

TEST(LinialEdge, NextPaletteMonotoneAndQuadratic) {
  // q^2 with q = O(Delta log k): palette shrinks whenever k >> Delta^2.
  for (int delta : {2, 4, 16, 64}) {
    std::int64_t k = 1 << 20;
    int guard = 0;
    while (linial_next_palette(k, delta) < k) {
      k = linial_next_palette(k, delta);
      ASSERT_LT(++guard, 10) << "log* convergence violated";
    }
    // Fixed point is O(Delta^2 polylog Delta).
    EXPECT_LE(k, 64ll * delta * delta * 64) << delta;
    EXPECT_GE(k, delta) << delta;
  }
}

TEST(LinialEdge, StepPreservesProperness) {
  auto g = make_gnp(40, 0.2, 9);
  congest::Network net(g);
  InducedSubgraph all = test::all_active(g);
  std::vector<std::int64_t> coloring(40);
  for (int v = 0; v < 40; ++v) coloring[v] = v;
  const std::int64_t k_out = linial_step(net, all, coloring, 40, g.max_degree());
  for (NodeId v = 0; v < 40; ++v) {
    EXPECT_GE(coloring[v], 0);
    EXPECT_LT(coloring[v], k_out);
    for (NodeId u : g.neighbors(v)) EXPECT_NE(coloring[u], coloring[v]);
  }
}

TEST(LinialEdge, IsolatedNodesAndSingletons) {
  auto g = Graph::from_edges(5, {});  // edgeless
  congest::Network net(g);
  InducedSubgraph all = test::all_active(g);
  LinialResult r = linial_coloring(net, all);
  EXPECT_LE(r.num_colors, 5);
}

TEST(ListInstanceEdge, NonPowerOfTwoColorSpace) {
  // C = 5: colors are 3-bit strings 000..100; the prefix machinery must
  // handle the asymmetric tree.
  auto g = make_cycle(12);
  std::vector<std::vector<Color>> lists(12);
  for (int v = 0; v < 12; ++v) lists[v] = {0, 2, 4};  // deg+1 = 3 from [5]
  ListInstance inst(g, 5, std::move(lists));
  EXPECT_EQ(inst.color_bits(), 3);
  const ListInstance pristine = inst;
  auto res = theorem11_solve(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

TEST(ListInstanceEdge, HugeSparseColorSpace) {
  // C = 2^20 with tiny lists: logC factor grows but correctness holds.
  auto g = make_path(10);
  std::vector<std::vector<Color>> lists(10);
  for (int v = 0; v < 10; ++v) {
    lists[v] = {static_cast<Color>(v) * 99991 % (1 << 20),
                (static_cast<Color>(v) * 77777 + 13) % (1 << 20),
                (static_cast<Color>(v) * 31337 + 523) % (1 << 20)};
    std::sort(lists[v].begin(), lists[v].end());
    lists[v].erase(std::unique(lists[v].begin(), lists[v].end()), lists[v].end());
    while (static_cast<int>(lists[v].size()) < g.degree(v) + 1) {
      lists[v].push_back(lists[v].back() + 1);
    }
  }
  ListInstance inst(g, 1 << 20, std::move(lists));
  const ListInstance pristine = inst;
  auto res = theorem11_solve(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

TEST(ListInstanceEdge, TrimKeepsFeasibility) {
  auto g = make_star(5);
  auto inst = ListInstance::random_lists(g, 20, 3);
  inst.trim_list(0, 5);  // center: deg 4, so 5 entries suffice
  EXPECT_EQ(inst.list(0).size(), 5u);
  EXPECT_TRUE(inst.feasible_for(test::all_active(g)));
  inst.trim_list(0, 500);  // no-op beyond current size
  EXPECT_EQ(inst.list(0).size(), 5u);
}

TEST(SeedFixingEdge, AggregatePairMatchesDirectSums) {
  auto g = make_binary_tree(31);
  congest::Network net(g);
  NetworkColoringTransport t(net);
  t.build_tree(0);
  // The depth of the tree build_tree floods, from a throwaway simulator.
  congest::Network probe(g);
  congest::TreeData probe_tree;
  congest::build_tree_data(probe, 0, &probe_tree);
  const int depth = probe_tree.depth;
  std::vector<long double> v0(31), v1(31);
  long double e0 = 0, e1 = 0;
  for (int i = 0; i < 31; ++i) {
    v0[i] = 0.125L * i;
    v1[i] = 1.0L / (1 + i % 7);
    e0 += v0[i];
    e1 += v1[i];
  }
  const auto before = net.metrics().rounds;
  auto [s0, s1] = t.aggregate_pair(v0, v1);
  EXPECT_NEAR(static_cast<double>(s0), static_cast<double>(e0), 1e-7);
  EXPECT_NEAR(static_cast<double>(s1), static_cast<double>(e1), 1e-7);
  // One tree pass (64-bit values pipelined into ceil(64/B) chunks) plus
  // one extra pipelined round for the second word.
  const int chunks = (64 + net.bandwidth_bits() - 1) / net.bandwidth_bits();
  EXPECT_EQ(net.metrics().rounds - before, depth + (chunks - 1) + 1);
  t.broadcast_bit(1);
}

TEST(Theorem11Edge, AlreadyTrivialInstances) {
  // Complete bipartite with wide lists; K_2; empty-ish graphs.
  for (auto g : {make_complete_bipartite(1, 1), make_complete_bipartite(2, 3)}) {
    auto inst = ListInstance::random_lists(g, 3 * (g.max_degree() + 1), 1);
    const ListInstance pristine = inst;
    auto res = theorem11_solve(g, std::move(inst));
    EXPECT_TRUE(pristine.valid_solution(res.colors));
  }
}

TEST(Theorem11Edge, StarNeedsOnlyTwoColors) {
  auto g = make_star(40);
  auto res = theorem11_solve(g, ListInstance::delta_plus_one(g));
  // Leaves are mutually non-adjacent; a valid solution exists using the
  // leaves' 2-entry lists — verify list containment held.
  for (NodeId v = 1; v < 40; ++v) {
    EXPECT_LT(res.colors[v], 2);
    EXPECT_NE(res.colors[v], res.colors[0]);
  }
}

}  // namespace
}  // namespace dcolor
