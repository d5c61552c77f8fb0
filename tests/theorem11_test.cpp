// End-to-end tests for Theorem 1.1 (full deterministic list coloring).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/coloring/baselines.h"
#include "src/coloring/derand_mis.h"
#include "src/coloring/theorem11.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/runtime/coloring_transport.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

std::vector<test::NamedGraph> small_graphs() {
  std::vector<test::NamedGraph> cases;
  cases.push_back({"single", Graph::from_edges(1, {})});
  cases.push_back({"edge", make_path(2)});
  cases.push_back({"path16", make_path(16)});
  cases.push_back({"cycle33", make_cycle(33)});
  cases.push_back({"star17", make_star(17)});
  cases.push_back({"grid6x7", make_grid(6, 7)});
  cases.push_back({"complete9", make_complete(9)});
  cases.push_back({"bipartite5x7", make_complete_bipartite(5, 7)});
  cases.push_back({"tree63", make_binary_tree(63)});
  cases.push_back({"cliquepath", make_path_of_cliques(5, 5)});
  cases.push_back({"caterpillar", make_caterpillar(8, 3)});
  cases.push_back({"gnp", make_gnp(64, 0.1, 21)});
  cases.push_back({"prefattach", make_preferential_attachment(80, 2, 13)});
  return cases;
}

TEST(Theorem11, DeltaPlusOneOnAllFamilies) {
  for (auto& [name, g] : small_graphs()) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    auto res = theorem11_solve_per_component(g, std::move(inst));
    EXPECT_TRUE(pristine.valid_solution(res.colors)) << name;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(res.colors[v], g.max_degree()) << name;  // Delta+1 colors
    }
  }
}

TEST(Theorem11, RandomListsOnAllFamilies) {
  for (auto& [name, g] : small_graphs()) {
    if (g.num_nodes() < 2) continue;
    auto inst = ListInstance::random_lists(g, 3 * (g.max_degree() + 2), 7);
    const ListInstance pristine = inst;
    auto res = theorem11_solve_per_component(g, std::move(inst));
    EXPECT_TRUE(pristine.valid_solution(res.colors)) << name;
  }
}

TEST(Theorem11, SharedPoolAdversarialLists) {
  auto g = make_gnp(48, 0.2, 3);
  auto inst = ListInstance::shared_pool_lists(g, g.max_degree() + 1, 5);
  const ListInstance pristine = inst;
  auto res = theorem11_solve_per_component(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

TEST(Theorem11, AvoidMisVariant) {
  for (auto g : {make_grid(5, 6), make_gnp(40, 0.15, 2), make_complete(8)}) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    PartialColoringOptions opts;
    opts.avoid_mis = true;
    auto res = theorem11_solve_per_component(g, std::move(inst), opts);
    EXPECT_TRUE(pristine.valid_solution(res.colors));
  }
}

TEST(Theorem11, GFFamilySmall) {
  for (auto g : {make_cycle(16), make_gnp(20, 0.2, 6)}) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    PartialColoringOptions opts;
    opts.family = CoinFamilyKind::kGF;
    auto res = theorem11_solve_per_component(g, std::move(inst), opts);
    EXPECT_TRUE(pristine.valid_solution(res.colors));
  }
}

TEST(Theorem11, IterationCountIsLogarithmic) {
  // Lemma 2.1 colors >= 1/8 per iteration => iterations <= log_{8/7} n + O(1).
  auto g = make_gnp(256, 0.05, 31);
  auto res = theorem11_solve_per_component(g, ListInstance::delta_plus_one(g));
  const double bound = std::log(256.0) / std::log(8.0 / 7.0) + 2;
  EXPECT_LE(res.iterations, static_cast<int>(bound));
}

TEST(Theorem11, DeterministicRerun) {
  auto g = make_gnp(60, 0.1, 12);
  auto r1 = theorem11_solve(g, ListInstance::delta_plus_one(g));
  auto r2 = theorem11_solve(g, ListInstance::delta_plus_one(g));
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(r1.metrics.rounds, r2.metrics.rounds);
}

TEST(Theorem11, DisconnectedGraphHandled) {
  // Two components: a clique and a cycle.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  for (NodeId i = 0; i < 6; ++i) edges.emplace_back(5 + i, 5 + (i + 1) % 6);
  auto g = Graph::from_edges(11, edges);
  auto inst = ListInstance::delta_plus_one(g);
  const ListInstance pristine = inst;
  auto res = theorem11_solve_per_component(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

// The whole-graph drivers need a connected graph: the BFS tree must span
// it. On two disjoint paths, building the tree throws a diagnostic that
// names an unreached node, on both transports and through both
// seed-fixing pipelines, instead of indexing the unreached nodes' level
// of -1. The per-component driver still colours the graph.
TEST(Theorem11, DisconnectedGraphRejectedByWholeGraphDrivers) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  EXPECT_THROW(theorem11_solve(g, ListInstance::delta_plus_one(g)), std::invalid_argument);
  runtime::EngineColoringTransport t11_engine(g, 1);
  EXPECT_THROW(theorem11_run(t11_engine, ListInstance::delta_plus_one(g)), std::invalid_argument);
  runtime::NetworkColoringTransport mis_network(g);
  EXPECT_THROW(derandomized_mis_core(mis_network), std::invalid_argument);
  runtime::EngineColoringTransport mis_engine(g, 1);
  EXPECT_THROW(derandomized_mis_core(mis_engine), std::invalid_argument);
  try {
    mis_network.build_tree(0);
    ADD_FAILURE() << "build_tree spanned a disconnected graph";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("node 3"), std::string::npos) << e.what();
  }

  auto inst = ListInstance::delta_plus_one(g);
  const ListInstance pristine = inst;
  EXPECT_TRUE(pristine.valid_solution(theorem11_solve_per_component(g, std::move(inst)).colors));
}

// A dense graph (Delta about 110) with 1024-colour random lists: exact
// fractions over the lcm of the candidate-list sizes overflow
// std::int64_t here, so the per-phase potential audit must not use them.
// Every phase of every Lemma 2.1 iteration must stay within the Lemma
// 2.6 budget n' + (l + 1) n'/ceil(logC) and end within Lemma 2.1's 2n',
// up to the fixed-point aggregation noise.
TEST(Theorem11, DenseWideListsKeepPotentialBounds) {
  const Graph g = make_gnp(300, 0.3, 7);
  const ListInstance inst = ListInstance::random_lists(g, 1024, 3);
  const Theorem11Result res = theorem11_solve(g, inst);
  EXPECT_TRUE(inst.valid_solution(res.colors));
  ASSERT_FALSE(res.per_iteration.empty());
  for (std::size_t i = 0; i < res.per_iteration.size(); ++i) {
    const PartialColoringStats& st = res.per_iteration[i];
    const long double n = st.active_before;
    const long double noise = n / (1 << 20);
    ASSERT_EQ(static_cast<int>(st.potential_after_phase.size()), st.phases) << "iter " << i;
    for (int l = 0; l < st.phases; ++l) {
      const long double phi = st.potential_after_phase[static_cast<std::size_t>(l)];
      EXPECT_GE(phi, 0.0L) << "iter " << i << " phase " << l;
      EXPECT_LE(phi - noise, n + (l + 1) * n / st.phases) << "iter " << i << " phase " << l;
    }
    if (st.phases > 0) {
      EXPECT_LE(st.potential_after_phase.back() - noise, 2 * n) << "iter " << i;
    }
  }
}

// A transport whose conflict MIS selects nobody: every Lemma 2.1
// iteration over it colors 0 nodes. Everything else is the Network
// reference.
class NoMisTransport final : public ColoringTransport {
 public:
  explicit NoMisTransport(const Graph& g) : inner_(g) {}

  const Graph& graph() const override { return inner_.graph(); }
  int bandwidth_bits() const override { return inner_.bandwidth_bits(); }
  LinialResult linial(const InducedSubgraph& active, const std::vector<std::int64_t>* initial,
                      std::int64_t initial_colors) override {
    return inner_.linial(active, initial, initial_colors);
  }
  void build_tree(NodeId root) override { inner_.build_tree(root); }
  void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<NodeId>>* from) override {
    inner_.exchange_along(targets, senders, payloads, bits, from);
  }
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override {
    return inner_.aggregate_pair(values0, values1);
  }
  void broadcast_bit(int bit) override { inner_.broadcast_bit(bit); }
  std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>&,
                                 const std::vector<std::int64_t>&, std::int64_t) override {
    return std::vector<bool>(static_cast<std::size_t>(conf.num_nodes()), false);
  }
  void tick(std::int64_t rounds) override { inner_.tick(rounds); }
  const congest::Metrics& metrics() const override { return inner_.metrics(); }

 private:
  runtime::NetworkColoringTransport inner_;
};

// An iteration that colors nothing would repeat forever; in a build
// without assertions, too, the loop must stop with an error instead.
TEST(Theorem11, NoProgressThrowsInsteadOfLooping) {
  const Graph g = make_grid(4, 4);
  NoMisTransport t(g);
  InducedSubgraph active = test::all_active(g);
  ListInstance inst = ListInstance::delta_plus_one(g);
  const LinialResult lin = t.linial(active, nullptr, 0);
  t.build_tree(0);
  std::vector<Color> colors(static_cast<std::size_t>(g.num_nodes()), kUncolored);
  EXPECT_THROW(
      list_color_subset(t, active, inst, colors, lin.coloring, lin.num_colors, {}),
      std::logic_error);
}

TEST(Baselines, GreedyValid) {
  for (auto& [name, g] : small_graphs()) {
    auto inst = ListInstance::delta_plus_one(g);
    EXPECT_TRUE(inst.valid_solution(greedy_list_coloring(inst))) << name;
  }
}

TEST(Baselines, RandomizedValidAndFast) {
  auto g = make_gnp(80, 0.1, 44);
  auto inst = ListInstance::delta_plus_one(g);
  const ListInstance pristine = inst;
  auto res = randomized_list_coloring(g, std::move(inst), 123);
  EXPECT_TRUE(pristine.valid_solution(res.colors));
  EXPECT_LE(res.iterations, 40);  // O(log n) w.h.p.
}

TEST(Baselines, RandomizedDeterministicGivenSeed) {
  auto g = make_gnp(40, 0.15, 2);
  auto a = randomized_list_coloring(g, ListInstance::delta_plus_one(g), 5);
  auto b = randomized_list_coloring(g, ListInstance::delta_plus_one(g), 5);
  EXPECT_EQ(a.colors, b.colors);
}

TEST(Baselines, ColorReductionReachesDeltaPlusOne) {
  for (auto g : {make_cycle(40), make_grid(5, 8)}) {
    auto res = color_reduction_baseline(g);
    EXPECT_TRUE(is_proper_coloring(g, std::vector<int>(res.colors.begin(), res.colors.end())));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(res.colors[v], g.max_degree());
    }
  }
}

}  // namespace
}  // namespace dcolor
