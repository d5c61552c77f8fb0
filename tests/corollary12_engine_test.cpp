// Corollary 1.2 on the parallel engine, tested head-on:
//  1. Cluster-tree parity — after bind_cluster, the engine transport's
//     seed-fixing ops charge exactly what the Network transport's charge
//     (depth, rounds, messages, bit totals) and compute the identical
//     saturating Q32.32 pair sums and broadcasts, per cluster, across
//     the decomposition corpus, at 1 and N threads.
//  2. Execution parity — runtime::corollary12_coloring is bit-identical
//     to corollary12_solve (colors, decomposition, round accounting
//     including the kappa congestion factor and the per-class pruning
//     round, Metrics) at 1/2/3/4 threads, and with more threads than a
//     class has clusters.
//  3. Stress — two whole per-cluster batch schedulers interleaved on
//     OS threads stay deterministic (the TSan CI job runs this suite).
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

using runtime::EngineColoringTransport;

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

// A cluster tree's depth as both transports must bind it: the deepest
// level recomputed from the parent arrays, never below tree_depth.
int expected_depth(const Graph& g, const Cluster& c) {
  std::vector<int> level(static_cast<std::size_t>(g.num_nodes()), -1);
  int depth = c.tree_depth;
  for (std::size_t i = 0; i < c.tree_nodes.size(); ++i) {
    const NodeId p = c.tree_parent[i];
    const int lv = p < 0 ? 0 : level[static_cast<std::size_t>(p)] + 1;
    level[static_cast<std::size_t>(c.tree_nodes[i])] = lv;
    depth = std::max(depth, lv);
  }
  return depth;
}

TEST(ClusterTreeParity, AggregateAndBroadcastMatchOnCorpus) {
  for (const auto& [name, g] : decomposition_corpus()) {
    const auto d = decompose(g);
    // Node values everywhere: the transports must restrict the sums to
    // the cluster's tree nodes (Steiner nodes included) on their own.
    std::vector<long double> v0(g.num_nodes()), v1(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      v0[v] = 0.125L * (v % 17) + 0.25L;
      v1[v] = 1.0L / (1.0L + v);
    }
    for (const Cluster& c : d.clusters) {
      const int depth = expected_depth(g, c);
      congest::Network net(g);
      NetworkColoringTransport ref(net);
      ref.bind_cluster(c);
      const auto [r0, r1] = ref.aggregate_pair(v0, v1);
      const std::int64_t before_broadcast = net.metrics().rounds;
      ref.broadcast_bit(1);
      // A 1-bit broadcast costs exactly one round per tree level.
      EXPECT_EQ(net.metrics().rounds - before_broadcast, depth) << name;
      for (int threads : {1, 3}) {
        const std::string where =
            name + " cluster root=" + std::to_string(c.root) + " t=" + std::to_string(threads);
        EngineColoringTransport eng(g, threads);
        eng.bind_cluster(c);
        EXPECT_EQ(eng.tree().depth, depth) << where;
        const auto [e0, e1] = eng.aggregate_pair(v0, v1);
        // Both sides sum identical Q32.32 encodings with saturating
        // adds, so the results are bit-identical, not merely close.
        EXPECT_EQ(e0, r0) << where;
        EXPECT_EQ(e1, r1) << where;
        eng.broadcast_bit(1);
        expect_metrics_eq(eng.metrics(), net.metrics(), where);
      }
    }
  }
}

TEST(ClusterTreeParity, ThreadCountCannotPerturbCharges) {
  auto g = make_clustered(5, 12, 0.5, 10, test::kTestSeed + 2);
  const auto d = decompose(g);
  const Cluster* big = &d.clusters[0];
  for (const auto& c : d.clusters) {
    if (c.tree_nodes.size() > big->tree_nodes.size()) big = &c;
  }
  std::vector<long double> v0(g.num_nodes(), 0.5L), v1(g.num_nodes(), 0.25L);
  EngineColoringTransport eng1(g, 1);
  eng1.bind_cluster(*big);
  const auto ref = eng1.aggregate_pair(v0, v1);
  for (int threads : {2, 4, 8}) {
    EngineColoringTransport eng(g, threads);
    eng.bind_cluster(*big);
    EXPECT_EQ(eng.tree().depth, eng1.tree().depth) << threads;
    const auto got = eng.aggregate_pair(v0, v1);
    EXPECT_EQ(got.first, ref.first) << threads;
    EXPECT_EQ(got.second, ref.second) << threads;
    expect_metrics_eq(eng.metrics(), eng1.metrics(), "t=" + std::to_string(threads));
  }
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
  // of clusters: most workers never receive a task, some never build
  // their pooled transport at all. Idle workers must not perturb the
  // deterministic batch-indexed merge.
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
