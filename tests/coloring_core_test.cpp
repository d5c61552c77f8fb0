// Tests for Linial's algorithm, MIS via color classes, list instances and
// the Lemma 2.1 partial coloring (progress + potential invariants).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/coloring/linial.h"
#include "src/coloring/list_instance.h"
#include "src/coloring/mis.h"
#include "src/coloring/partial_coloring.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/runtime/coloring_transport.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/linial_program.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

using test::proper_on_active;

TEST(Linial, ReducesToPolyDeltaColors) {
  for (auto [g, name] : {std::pair{make_cycle(128), "cycle"},
                         std::pair{make_grid(8, 16), "grid"},
                         std::pair{make_gnp(100, 0.08, 11), "gnp"}}) {
    congest::Network net(g);
    InducedSubgraph all = test::all_active(g);
    LinialResult r = runtime::linial_coloring(net, all);
    EXPECT_TRUE(proper_on_active(all, r.coloring)) << name;
    const std::int64_t delta = g.max_degree();
    // O(Delta^2 polylog Delta): generous explicit cap.
    EXPECT_LE(r.num_colors, 16 * (delta + 1) * (delta + 1) * 64) << name;
    EXPECT_LT(r.num_colors, g.num_nodes() * 2) << name;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GE(r.coloring[v], 0);
      EXPECT_LT(r.coloring[v], r.num_colors);
    }
    // log* rounds: tiny.
    EXPECT_LE(r.iterations, 8) << name;
  }
}

TEST(Linial, WorksOnSubgraph) {
  auto g = make_complete(12);
  std::vector<bool> memb(12, false);
  for (int v = 0; v < 12; v += 2) memb[v] = true;  // 6-clique on even nodes
  congest::Network net(g);
  InducedSubgraph sub(g, memb);
  LinialResult r = runtime::linial_coloring(net, sub);
  EXPECT_TRUE(proper_on_active(sub, r.coloring));
}

TEST(Mis, ValidOnVariousGraphs) {
  for (auto g : {make_cycle(30), make_path(17), make_grid(5, 6), make_gnp(60, 0.1, 3)}) {
    congest::Network net(g);
    InducedSubgraph all = test::all_active(g);
    LinialResult lin = runtime::linial_coloring(net, all);
    auto mis = runtime::mis_by_color_classes(net, all, lin.coloring, lin.num_colors);
    EXPECT_TRUE(test::valid_mis(all, mis));
  }
}

TEST(Mis, SingletonAndEmpty) {
  auto g = Graph::from_edges(1, {});
  congest::Network net(g);
  InducedSubgraph all = test::all_active(g);
  auto mis = runtime::mis_by_color_classes(net, all, {0}, 1);
  EXPECT_TRUE(mis[0]);
}

TEST(ListInstance, DeltaPlusOne) {
  auto g = make_star(6);
  auto inst = ListInstance::delta_plus_one(g);
  EXPECT_EQ(inst.color_space(), 6);
  EXPECT_EQ(inst.list(0).size(), 6u);  // center: deg 5
  EXPECT_EQ(inst.list(1).size(), 2u);
  EXPECT_TRUE(inst.feasible_for(test::all_active(g)));
}

TEST(ListInstance, RandomListsFeasibleAndSorted) {
  auto g = make_gnp(40, 0.15, 8);
  auto inst = ListInstance::random_lists(g, 64, 5);
  for (NodeId v = 0; v < 40; ++v) {
    const auto& L = inst.list(v);
    EXPECT_EQ(static_cast<int>(L.size()), g.degree(v) + 1);
    EXPECT_TRUE(std::is_sorted(L.begin(), L.end()));
    EXPECT_LT(L.back(), 64);
  }
}

TEST(ListInstance, RemoveAndValidate) {
  auto g = make_path(3);
  auto inst = ListInstance::delta_plus_one(g);
  EXPECT_TRUE(inst.remove_color(1, 2));
  EXPECT_FALSE(inst.remove_color(1, 2));
  EXPECT_TRUE(inst.valid_solution({0, 1, 0}));
  EXPECT_FALSE(inst.valid_solution({0, 0, 1}));   // conflict
  EXPECT_FALSE(inst.valid_solution({1, 2, 1}));   // 2 was removed from L(1)? no: removed, invalid
}

// Release builds compile assert out, so malformed input must be rejected
// by a real check, with the offending node named.
TEST(ListInstance, RejectsMalformedListsNamingTheNode) {
  const Graph g = make_path(2);
  auto message_of = [&](std::int64_t color_space, std::vector<std::vector<Color>> lists) {
    try {
      ListInstance(g, color_space, std::move(lists));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message_of(4, {{0}, {0, 1}}).find("node 0"), std::string::npos);  // < deg+1
  EXPECT_NE(message_of(4, {{0, 1}, {0, 4}}).find("node 1"), std::string::npos);  // >= C
  EXPECT_NE(message_of(4, {{-1, 1}, {0, 1}}).find("node 0"), std::string::npos);  // < 0
  EXPECT_NE(message_of(4, {{0, 1}, {2, 2}}).find("node 1"), std::string::npos);  // duplicate
  EXPECT_NE(message_of(4, {{0, 1}}).find("1 lists for 2 nodes"), std::string::npos);
  EXPECT_EQ(message_of(4, {{1, 0}, {3, 2}}), "accepted");

  // random_lists needs deg(v)+1 distinct colors from [C].
  const Graph star = make_star(5);  // center degree 4
  try {
    ListInstance::random_lists(star, 4, 1);
    ADD_FAILURE() << "random_lists accepted C < deg+1";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 0"), std::string::npos) << e.what();
  }
  EXPECT_THROW(ListInstance::random_lists(star, 0, 1), std::invalid_argument);
}

struct PartialCase {
  const char* name;
  Graph graph;
  CoinFamilyKind family;
  bool avoid_mis;
};

class PartialColoringTest : public ::testing::TestWithParam<int> {};

// Core Lemma 2.1 guarantees across families/options/graphs:
//   (1) >= 1/8 of the active nodes get colored,
//   (2) candidate lists never become empty (asserted internally),
//   (3) the potential after each phase obeys the Lemma 2.6 bound,
//   (4) colored nodes form a proper partial list coloring,
//   (5) the residual instance stays feasible.
TEST_P(PartialColoringTest, LemmaGuarantees) {
  const int scenario = GetParam();
  Graph g;
  CoinFamilyKind fam = CoinFamilyKind::kBitwise;
  bool avoid_mis = false;
  switch (scenario) {
    case 0: g = make_cycle(64); break;
    case 1: g = make_grid(6, 8); break;
    case 2: g = make_gnp(48, 0.12, 17); break;
    case 3: g = make_complete(10); break;
    case 4: g = make_path_of_cliques(6, 4); break;
    case 5:
      g = make_cycle(24);
      fam = CoinFamilyKind::kGF;
      break;
    case 6:
      g = make_gnp(24, 0.2, 4);
      fam = CoinFamilyKind::kGF;
      break;
    case 7:
      g = make_grid(5, 8);
      avoid_mis = true;
      break;
    case 8:
      g = make_gnp(40, 0.15, 9);
      avoid_mis = true;
      break;
    default: g = make_path(16);
  }
  auto inst = ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 99);
  const ListInstance pristine = inst;
  const NodeId n = g.num_nodes();

  congest::Network net(g);
  InducedSubgraph active = test::all_active(g);
  LinialResult lin = runtime::linial_coloring(net, active);
  std::vector<Color> colors(n, kUncolored);

  PartialColoringOptions opts;
  opts.family = fam;
  opts.avoid_mis = avoid_mis;
  runtime::NetworkColoringTransport t(net);
  t.build_tree(0);
  PartialColoringStats st =
      color_one_eighth(t, active, inst, colors, lin.coloring, lin.num_colors, opts);

  // (1) Progress: at least ceil(n/8) colored.
  EXPECT_GE(st.newly_colored, (n + 7) / 8) << "scenario " << scenario;

  // (3) Potential trajectory: Phi_l <= Phi_0 + l * n/ceil(logC) + noise.
  ASSERT_EQ(static_cast<int>(st.potential_after_phase.size()), st.phases);
  const long double slack = static_cast<long double>(n) / st.phases;  // n/ceil(logC) per phase
  const long double noise = static_cast<long double>(n) / (1 << 20);  // fixed-point noise
  long double bound = n;                                               // Phi_0 < n' always
  for (int l = 0; l < st.phases; ++l) {
    bound += slack;
    EXPECT_LE(st.potential_after_phase[l] - noise, bound)
        << "scenario " << scenario << " phase " << l;
  }
  // Lemma 2.1: final potential <= 2n.
  EXPECT_LE(st.potential_after_phase.back() - noise, 2.0L * n);

  // (4) Proper partial coloring from the original lists.
  EXPECT_TRUE(test::proper_partial_on_active(test::all_active(g), colors, kUncolored));
  for (NodeId v = 0; v < n; ++v) {
    if (colors[v] == kUncolored) continue;
    EXPECT_TRUE(std::binary_search(pristine.list(v).begin(), pristine.list(v).end(), colors[v]));
  }

  // (5) Residual feasibility.
  EXPECT_TRUE(inst.feasible_for(active));

  // Honest bandwidth: no message exceeded the budget.
  EXPECT_LE(net.metrics().max_message_bits, net.bandwidth_bits());
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PartialColoringTest, ::testing::Range(0, 9));

// The widest precision a test reaches: the Section-4 variant on the star
// K_{1,5800} with Delta+1 lists needs b = ceil_log2(10 * 5800 * 13 * 5801)
// = 33, past the exact long-double range, so the fast engine runs on
// unsigned __int128 numerators, and 2b + bit_width(5800) = 79 puts the
// node sums on the 128-bit path. One color_one_eighth on each transport
// must give a valid partial coloring with progress, and both transports
// identical colors and identical metrics.
TEST(PartialColoring, WidePrecisionStarMatchesAcrossTransports) {
  ASSERT_EQ(node_sum_width(33, 5800), 128);
  const Graph g = make_star(5801);
  const NodeId n = g.num_nodes();
  congest::Network lin_net(g);
  const LinialResult lin = runtime::linial_coloring(lin_net, test::all_active(g));
  PartialColoringOptions opts;
  opts.avoid_mis = true;

  struct Run {
    std::vector<Color> colors;
    congest::Metrics metrics;
    PartialColoringStats stats;
  };
  auto run = [&](ColoringTransport& t) {
    InducedSubgraph active = test::all_active(g);
    ListInstance inst = ListInstance::delta_plus_one(g);
    Run out{std::vector<Color>(n, kUncolored), {}, {}};
    t.build_tree(0);
    out.stats = color_one_eighth(t, active, inst, out.colors, lin.coloring, lin.num_colors, opts);
    out.metrics = t.metrics();
    return out;
  };
  runtime::NetworkColoringTransport net_t(g);
  const Run ref = run(net_t);
  runtime::EngineColoringTransport eng_t(g, 2);
  const Run eng = run(eng_t);

  ASSERT_EQ(ref.stats.precision_bits, 33);
  EXPECT_GE(ref.stats.newly_colored, 1);
  EXPECT_TRUE(test::proper_partial_on_active(test::all_active(g), ref.colors, kUncolored));
  const ListInstance lists = ListInstance::delta_plus_one(g);
  for (NodeId v = 0; v < n; ++v) {
    if (ref.colors[v] == kUncolored) continue;
    EXPECT_TRUE(std::binary_search(lists.list(v).begin(), lists.list(v).end(), ref.colors[v]))
        << "v=" << v;
  }
  EXPECT_EQ(eng.colors, ref.colors);
  EXPECT_EQ(eng.stats.newly_colored, ref.stats.newly_colored);
  EXPECT_EQ(eng.metrics.rounds, ref.metrics.rounds);
  EXPECT_EQ(eng.metrics.messages, ref.metrics.messages);
  EXPECT_EQ(eng.metrics.total_bits, ref.metrics.total_bits);
  EXPECT_EQ(eng.metrics.max_message_bits, ref.metrics.max_message_bits);
}

// The node sums take 2b + bit_width(Delta) bits: 64-bit accumulators up
// to 64 of them, 128-bit ones up to 128, and a rejection naming b and
// Delta beyond.
TEST(PartialColoring, NodeSumWidthFitsTwoBPlusDegreeBits) {
  EXPECT_EQ(node_sum_width(31, 3), 64);    // 62 + 2 = 64
  EXPECT_EQ(node_sum_width(31, 4), 128);   // 62 + 3 = 65
  EXPECT_EQ(node_sum_width(32, 1), 128);   // 64 + 1 = 65
  EXPECT_EQ(node_sum_width(1, 0), 64);     // no edges: Delta counts as 1
  EXPECT_EQ(node_sum_width(60, 255), 128);  // 120 + 8 = 128
  try {
    node_sum_width(60, 256);  // 120 + 9 = 129
    FAIL() << "129-bit node sums accepted";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("b = 60"), std::string::npos) << what;
    EXPECT_NE(what.find("Delta = 256"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace dcolor
