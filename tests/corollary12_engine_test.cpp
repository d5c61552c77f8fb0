// Corollary 1.2 on the parallel engine, tested head-on (the cluster-tree
// waves themselves are held to their per-round oracle in
// tests/tree_wave_test.cpp):
//  1. Execution parity — runtime::corollary12_coloring is bit-identical
//     to corollary12_solve (colors, decomposition, round accounting
//     including the kappa congestion factor and the per-class pruning
//     round, Metrics) at 1/2/3/4 threads, and with more threads than a
//     class has clusters.
//  2. Stress — two whole per-cluster batch schedulers interleaved on
//     OS threads stay deterministic (the TSan CI job runs this suite,
//     which also sanitizes the concurrent per-cluster local-graph
//     builds).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "src/congest/network.h"
#include "src/decomposition/corollary12.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/runtime/corollary12_program.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

std::vector<test::NamedGraph> decomposition_corpus() {
  std::vector<test::NamedGraph> v = test::stress_corpus();
  v.push_back({"path64", make_path(64)});
  return v;
}

void expect_metrics_eq(const congest::Metrics& a, const congest::Metrics& b,
                       const std::string& where) {
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << where;
}

void expect_corollary12_eq(const Corollary12Result& got, const Corollary12Result& ref,
                           const std::string& where) {
  EXPECT_EQ(got.colors, ref.colors) << where;
  EXPECT_EQ(got.decomposition_rounds, ref.decomposition_rounds) << where;
  EXPECT_EQ(got.coloring_rounds, ref.coloring_rounds) << where;
  EXPECT_EQ(got.total_rounds, ref.total_rounds) << where;
  EXPECT_EQ(got.decomposition.num_colors, ref.decomposition.num_colors) << where;
  EXPECT_EQ(got.decomposition.cluster_of, ref.decomposition.cluster_of) << where;
  expect_metrics_eq(got.metrics, ref.metrics, where);
}

TEST(Corollary12EngineParity, MatchesNetworkOnCorpus) {
  for (const auto& [name, g] : decomposition_corpus()) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    const Corollary12Result ref = corollary12_solve(g, inst);
    for (int threads : {1, 4}) {
      const Corollary12Result got = runtime::corollary12_coloring(g, inst, threads);
      expect_corollary12_eq(got, ref, name + " t=" + std::to_string(threads));
      EXPECT_TRUE(pristine.valid_solution(got.colors)) << name;
    }
  }
}

TEST(Corollary12EngineParity, AllThreadCountsOnClustered) {
  auto g = make_clustered(5, 12, 0.5, 10, test::kTestSeed + 2);
  auto inst = ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 31);
  const ListInstance pristine = inst;
  const Corollary12Result ref = corollary12_solve(g, inst);
  EXPECT_GT(ref.metrics.messages, 0);  // records must carry real traffic now
  // Odd counts matter: 3 leaves a straggler worker in every work-stolen
  // batch, the configuration most likely to expose an ordering bug.
  for (int threads : {1, 2, 3, 4}) {
    const Corollary12Result got = runtime::corollary12_coloring(g, inst, threads);
    expect_corollary12_eq(got, ref, "t=" + std::to_string(threads));
    EXPECT_TRUE(pristine.valid_solution(got.colors)) << threads;
  }
}

TEST(Corollary12EngineParity, MoreThreadsThanClustersInAnyClass) {
  // 16 workers over a decomposition whose classes hold at most a handful
  // of clusters: most workers never receive a task. Idle workers must
  // not perturb the deterministic batch-indexed merge.
  auto g = make_clustered(3, 8, 0.5, 6, test::kTestSeed + 4);
  auto inst = ListInstance::delta_plus_one(g);
  const ListInstance pristine = inst;
  const auto d = decompose(g);
  EXPECT_LT(d.clusters.size(), 16u);
  const Corollary12Result ref = corollary12_solve(g, inst);
  const Corollary12Result got = runtime::corollary12_coloring(g, inst, 16);
  expect_corollary12_eq(got, ref, "t=16");
  EXPECT_TRUE(pristine.valid_solution(got.colors));
}

TEST(Corollary12EngineStress, InterleavedConcurrentRunsStayDeterministic) {
  // Two complete Corollary 1.2 runs — each with its own pool dispatching
  // per-cluster engines concurrently — race each other on OS threads.
  // Nothing may bleed between them: every repetition of both runs must
  // reproduce the sequential reference bit for bit. This is the test the
  // TSan CI job leans on to certify the concurrent cluster scheduler.
  auto ga = make_clustered(6, 9, 0.45, 8, test::kTestSeed + 5);
  auto gb = make_clustered(5, 11, 0.4, 7, test::kTestSeed + 6);
  auto inst_a = ListInstance::delta_plus_one(ga);
  auto inst_b = ListInstance::random_lists(gb, 3 * (gb.max_degree() + 1), 17);
  const Corollary12Result ref_a = corollary12_solve(ga, inst_a);
  const Corollary12Result ref_b = corollary12_solve(gb, inst_b);
  for (int iter = 0; iter < 3; ++iter) {
    Corollary12Result got_a, got_b;
    std::thread ta([&] { got_a = runtime::corollary12_coloring(ga, inst_a, 3); });
    std::thread tb([&] { got_b = runtime::corollary12_coloring(gb, inst_b, 2); });
    ta.join();
    tb.join();
    expect_corollary12_eq(got_a, ref_a, "interleaved run A iter=" + std::to_string(iter));
    expect_corollary12_eq(got_b, ref_b, "interleaved run B iter=" + std::to_string(iter));
  }
}

TEST(Corollary12EngineParity, NarrowBandwidthReroutesChunkedPaths) {
  // A narrow bandwidth forces multi-chunk pipelining through the cluster
  // tree waves (ceil(128/B)-1 charged rounds) and the exchanges; parity
  // must survive the rerouted accounting.
  auto g = make_clustered(4, 10, 0.5, 8, test::kTestSeed + 3);
  PartialColoringOptions opts;
  opts.bandwidth_bits = 12;
  auto inst = ListInstance::delta_plus_one(g);
  const Corollary12Result ref = corollary12_solve(g, inst, opts);
  const Corollary12Result got = runtime::corollary12_coloring(g, inst, 3, opts);
  expect_corollary12_eq(got, ref, "narrow_bw");
  EXPECT_TRUE(inst.valid_solution(got.colors));
}

TEST(Corollary12EngineParity, SteinerClustersOnLocalGraphs) {
  // Each cluster runs on its local graph: members first, then the Steiner
  // nodes its tree passes through. An input whose decomposition has
  // Steiner nodes, at the default bandwidth and at B = 12: both backends
  // and both thread counts must agree on colors and full Metrics.
  const Graph g = make_clustered(12, 8, 0.35, 12, 4);
  const NetworkDecomposition d = decompose(g);
  EXPECT_TRUE(std::any_of(d.clusters.begin(), d.clusters.end(), [](const Cluster& c) {
    return c.tree_nodes.size() > c.members.size();
  }));
  auto inst = ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 23);
  for (const int bw : {0, 12}) {
    PartialColoringOptions opts;
    opts.bandwidth_bits = bw;
    const Corollary12Result ref = corollary12_solve(g, inst, opts);
    EXPECT_TRUE(inst.valid_solution(ref.colors)) << "bw=" << bw;
    for (const int threads : {1, 3}) {
      const Corollary12Result got = runtime::corollary12_coloring(g, inst, threads, opts);
      expect_corollary12_eq(got, ref, "bw=" + std::to_string(bw) + " t=" +
                                          std::to_string(threads));
    }
    // A cluster transport takes the global transport's resolved
    // bandwidth, not the default of its (smaller) local graph.
    runtime::EngineCorollary12Transports transports(g, 1, bw);
    const int global_bw = transports.global().bandwidth_bits();
    for (const Cluster& c : d.clusters) {
      EXPECT_EQ(transports.cluster(c).bandwidth_bits(), global_bw) << "bw=" << bw;
    }
  }
}

TEST(Corollary12EngineParity, TinyGraphs) {
  Graph empty = Graph::from_edges(0, {});
  const auto r0 = runtime::corollary12_coloring(empty, ListInstance::delta_plus_one(empty), 2);
  EXPECT_TRUE(r0.colors.empty());

  Graph one = Graph::from_edges(1, {});
  auto inst1 = ListInstance::delta_plus_one(one);
  const auto ref = corollary12_solve(one, inst1);
  const auto got = runtime::corollary12_coloring(one, inst1, 4);
  expect_corollary12_eq(got, ref, "one-node");
  EXPECT_NE(got.colors[0], kUncolored);
}

}  // namespace
}  // namespace dcolor
