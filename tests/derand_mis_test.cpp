// Deterministic MIS via the coloring engine's derandomization machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/benchkit/verify.h"
#include "src/coloring/derand_mis.h"
#include "src/coloring/mis.h"
#include "src/coloring/theorem11.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

class DerandMisTest : public ::testing::TestWithParam<int> {};

TEST_P(DerandMisTest, ProducesValidMis) {
  Graph g;
  switch (GetParam()) {
    case 0: g = make_cycle(64); break;
    case 1: g = make_path(33); break;
    case 2: g = make_grid(7, 9); break;
    case 3: g = make_complete(12); break;
    case 4: g = make_star(25); break;
    case 5: g = make_gnp(72, 0.1, 3); break;
    case 6: g = make_binary_tree(63); break;
    case 7: g = make_near_regular(64, 6, 5); break;
    default: g = Graph::from_edges(1, {});
  }
  auto res = derandomized_mis(g);
  EXPECT_TRUE(test::valid_mis(test::all_active(g), res.in_mis)) << GetParam();
  EXPECT_GT(res.iterations, 0);
}

INSTANTIATE_TEST_SUITE_P(Graphs, DerandMisTest, ::testing::Range(0, 9));

TEST(DerandMis, Deterministic) {
  auto g = make_gnp(48, 0.12, 9);
  auto a = derandomized_mis(g);
  auto b = derandomized_mis(g);
  EXPECT_EQ(a.in_mis, b.in_mis);
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
}

TEST(DerandMis, IterationBoundLubyA) {
  // O(Delta log n) iterations for the simple estimator.
  auto g = make_near_regular(128, 8, 13);
  auto res = derandomized_mis(g);
  const double bound = 4.0 * g.max_degree() * std::log2(g.num_nodes()) + 8;
  EXPECT_LE(res.iterations, static_cast<int>(bound));
}

TEST(DerandMis, StarPicksLeavesOrCenter) {
  auto g = make_star(10);
  auto res = derandomized_mis(g);
  // Either {center} or all leaves; both are maximal independent sets.
  if (res.in_mis[0]) {
    for (NodeId v = 1; v < 10; ++v) EXPECT_FALSE(res.in_mis[v]);
  } else {
    for (NodeId v = 1; v < 10; ++v) EXPECT_TRUE(res.in_mis[v]);
  }
}

// ---- golden pins ----
//
// Exact outputs and CONGEST charges of the reference drivers. The
// Network-vs-engine parity tests cannot see a charging change that hits
// both executors alike, and the bench baseline gate only reports drift;
// these pins fail on it. A deliberate change to the algorithm or its
// charging must update them in the same commit and say so.

struct Pin {
  std::uint64_t output_hash;
  std::int64_t iterations;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t total_bits;
  int max_message_bits;
};

void expect_pin(const Pin& want, std::uint64_t output_hash, std::int64_t iterations,
                const congest::Metrics& m, const std::string& name) {
  EXPECT_EQ(output_hash, want.output_hash) << name;
  EXPECT_EQ(iterations, want.iterations) << name;
  EXPECT_EQ(m.rounds, want.rounds) << name;
  EXPECT_EQ(m.messages, want.messages) << name;
  EXPECT_EQ(m.total_bits, want.total_bits) << name;
  EXPECT_EQ(m.max_message_bits, want.max_message_bits) << name;
}

// Cycle(10) + path(8) + one isolated node: three components.
Graph cycle_path_isolated() {
  std::vector<std::pair<NodeId, NodeId>> e;
  for (NodeId i = 0; i < 10; ++i) e.emplace_back(i, (i + 1) % 10);
  for (NodeId i = 10; i + 1 < 18; ++i) e.emplace_back(i, i + 1);
  return Graph::from_edges(20, std::move(e));
}

TEST(DerandMisGolden, ReferenceOutputsAndCharges) {
  struct Case {
    std::string name;
    Graph g;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"gnp48", make_gnp(48, 0.12, 9),
       {13542679930715747113ull, 3, 1191, 10690, 156692, 28}},
      {"grid7x9", make_grid(7, 9), {5843086109646082066ull, 1, 700, 3388, 44880, 28}},
      {"cycle_path_isolated", cycle_path_isolated(),
       {14981516196893197110ull, 1, 164, 426, 4562, 24}},
  };
  ASSERT_TRUE(is_connected(cases[0].g));
  for (const Case& c : cases) {
    const DerandMisResult res = derandomized_mis(c.g);
    expect_pin(c.pin, benchkit::checksum_bits(res.in_mis), res.iterations, res.metrics, c.name);
  }
}

TEST(Theorem11Golden, PerComponentOutputsAndCharges) {
  const Graph g = cycle_path_isolated();
  const Theorem11Result res = theorem11_solve_per_component(
      g, ListInstance::random_lists(g, 3 * (g.max_degree() + 2), 7));
  expect_pin({5225853816301086775ull, 1, 434, 1044, 11590, 24},
             benchkit::checksum_values(res.colors), res.iterations, res.metrics,
             "cycle_path_isolated");
  EXPECT_EQ(res.input_colors, 10);
}

}  // namespace
}  // namespace dcolor
