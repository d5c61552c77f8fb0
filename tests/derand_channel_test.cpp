// ColoringTransport conformance: the sequential reference transport
// (congest::Network + NetworkColoringTransport) and the parallel engine
// transport (runtime::EngineColoringTransport) must charge identical
// CONGEST costs and produce identical values for identical call
// sequences — the property the Theorem 1.1 port rests on. The suite
// replays each primitive head-on: tree construction, the Lemma 2.6
// seed-fixing scenario (aggregate_pair + broadcast_bit per bit, chosen
// seeds compared), conflict-edge exchanges with and without payload
// collection, and the conflict-resolution MIS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/coloring/linial.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/graph/generators.h"
#include "src/runtime/theorem11_program.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

void expect_metrics_eq(const congest::Metrics& a, const congest::Metrics& b,
                       const std::string& where) {
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << where;
}

// Root 0 alone on layer 0, then `layers` layers of `width` nodes with
// shuffled ids; each node links to three nodes of the layer above, so
// most nodes have several equidistant candidate parents and the
// smallest-id rule decides.
Graph equidistant_parents_graph(int layers, int width) {
  auto rng = test::make_rng(0xe9d1);
  const NodeId n = 1 + static_cast<NodeId>(layers) * width;
  std::vector<NodeId> ids(static_cast<std::size_t>(n) - 1);
  for (NodeId i = 0; i + 1 < n; ++i) ids[static_cast<std::size_t>(i)] = i + 1;
  for (std::size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[rng.next_below(i)]);
  auto node = [&](int layer, int k) {
    return layer == 0 ? NodeId{0} : ids[static_cast<std::size_t>((layer - 1) * width + k)];
  };
  std::vector<std::pair<NodeId, NodeId>> e;
  for (int l = 1; l <= layers; ++l) {
    const int above = l == 1 ? 1 : width;
    for (int k = 0; k < width; ++k) {
      std::vector<int> picked;
      while (static_cast<int>(picked.size()) < std::min(3, above)) {
        const int p = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(above)));
        if (std::find(picked.begin(), picked.end(), p) == picked.end()) picked.push_back(p);
      }
      for (const int p : picked) e.emplace_back(node(l - 1, p), node(l, k));
    }
  }
  return Graph::from_edges(n, std::move(e));
}

// A star whose center is the last id, so the root 0 is a leaf.
Graph leaf_rooted_star(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> e;
  for (NodeId i = 0; i + 1 < n; ++i) e.emplace_back(i, n - 1);
  return Graph::from_edges(n, std::move(e));
}

// Connected graphs only: build_tree floods a spanning BFS tree.
std::vector<test::NamedGraph> connected_corpus() {
  std::vector<test::NamedGraph> v;
  v.push_back({"cycle64", make_cycle(64)});
  v.push_back({"grid6x8", make_grid(6, 8)});
  v.push_back({"grid4x256", make_grid(4, 256)});
  v.push_back({"tree63", make_binary_tree(63)});
  v.push_back({"cliquepath6x5", make_path_of_cliques(6, 5)});
  v.push_back({"star24", make_star(24)});
  v.push_back({"leafstar300", leaf_rooted_star(300)});
  v.push_back({"equidistant6x12", equidistant_parents_graph(6, 12)});
  return v;
}

TEST(TransportConformance, SeedFixingScenarioMatches) {
  for (const auto& [name, g] : connected_corpus()) {
    const NodeId n = g.num_nodes();
    congest::Network net(g);
    NetworkColoringTransport ref(net);
    for (int threads : {1, 3}) {
      runtime::EngineColoringTransport eng(g, threads);
      ref.network().reset_metrics();
      eng.engine().reset_metrics();

      ref.build_tree(0);
      eng.build_tree(0);
      expect_metrics_eq(ref.metrics(), eng.metrics(), name + " after build_tree");
      {
        // The engine's tree is the Network flood's, node by node and
        // level roster by level roster.
        congest::Network bfs_net(g);
        congest::TreeData bfs;
        congest::build_tree_data(bfs_net, 0, &bfs);
        expect_metrics_eq(bfs_net.metrics(), eng.metrics(), name + " Network flood");
        const congest::TreeData& tree = eng.tree();
        EXPECT_EQ(tree.depth, bfs.depth) << name;
        EXPECT_EQ(tree.level_off, bfs.level_off) << name;
        EXPECT_EQ(tree.level_nodes, bfs.level_nodes) << name;
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(tree.level[v], bfs.level[v]) << name << " v=" << v;
          ASSERT_EQ(tree.parent[v], bfs.parent[v]) << name << " v=" << v;
        }
      }

      // The same deterministic seed-fixing scenario on both transports:
      // per "seed bit" both sides aggregate a pair of per-node
      // conditional-expectation vectors, pick the minimizing bit, and
      // broadcast it. The values evolve with the chosen bits so any
      // divergence compounds and cannot cancel.
      auto rng = test::make_rng(0x5eedf1f);
      std::vector<long double> x0(n), x1(n);
      for (NodeId v = 0; v < n; ++v) {
        x0[v] = static_cast<long double>(rng.next_u64() % 1024) / 64.0L;
        x1[v] = static_cast<long double>(rng.next_u64() % 1024) / 64.0L;
      }
      std::vector<int> ref_bits, eng_bits;
      for (int j = 0; j < 24; ++j) {
        const auto [r0, r1] = ref.aggregate_pair(x0, x1);
        const auto [e0, e1] = eng.aggregate_pair(x0, x1);
        EXPECT_EQ(static_cast<double>(r0), static_cast<double>(e0)) << name << " bit " << j;
        EXPECT_EQ(static_cast<double>(r1), static_cast<double>(e1)) << name << " bit " << j;
        const int rb = r0 <= r1 ? 0 : 1;
        const int eb = e0 <= e1 ? 0 : 1;
        ref_bits.push_back(rb);
        eng_bits.push_back(eb);
        ref.broadcast_bit(rb);
        eng.broadcast_bit(eb);
        // Deterministic evolution driven by the chosen bit.
        for (NodeId v = 0; v < n; ++v) {
          x0[v] = rb ? x0[v] * 0.5L + x1[v] : x0[v] + 0.25L * v;
          x1[v] = rb ? x1[v] + 1.0L / (1 + v) : x1[v] * 0.75L;
        }
      }
      EXPECT_EQ(ref_bits, eng_bits) << name << " threads=" << threads;
      expect_metrics_eq(ref.metrics(), eng.metrics(), name + " after seed fixing");
    }
  }
}

TEST(TransportConformance, ExchangeAlongMatches) {
  const Graph g = make_gnp(60, 0.15, test::kTestSeed + 7);
  const NodeId n = g.num_nodes();

  // Alive-conflict-style targets: a deterministic subset of each node's
  // adjacency, ascending (a different subset per node).
  std::vector<std::vector<NodeId>> targets(n);
  std::vector<char> senders(n, 0);
  std::vector<std::uint64_t> payloads(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    senders[v] = (v % 3) != 0 ? 1 : 0;
    payloads[v] = static_cast<std::uint64_t>(v) * 17 + 3;
    int i = 0;
    for (NodeId u : g.neighbors(v)) {
      if ((v + u + i++) % 2 == 0) targets[v].push_back(u);
    }
  }

  congest::Network net(g);
  NetworkColoringTransport ref(net);
  for (int threads : {1, 4}) {
    runtime::EngineColoringTransport eng(g, threads);
    ref.network().reset_metrics();

    // Without collection, narrow payloads.
    ref.exchange_along(targets, senders, payloads, 12, nullptr);
    eng.exchange_along(targets, senders, payloads, 12, nullptr);
    expect_metrics_eq(ref.metrics(), eng.metrics(), "exchange 12-bit");

    // With collection and a payload wider than the bandwidth (chunked).
    std::vector<std::vector<NodeId>> ref_from(n), eng_from(n);
    const int wide = net.bandwidth_bits() + 9;
    ref.exchange_along(targets, senders, payloads, wide, &ref_from);
    eng.exchange_along(targets, senders, payloads, wide, &eng_from);
    EXPECT_EQ(ref_from, eng_from) << "threads=" << threads;
    expect_metrics_eq(ref.metrics(), eng.metrics(), "exchange chunked");
  }
}

TEST(TransportConformance, ConflictMisMatches) {
  // A max-degree<=3 conflict graph restricted to a membership subset —
  // the exact shape the Lemma 2.1 conflict-resolution step produces.
  const Graph base = make_grid(7, 9);  // max degree 4; membership trims it
  const NodeId n = base.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<bool> memb(n, false);
  for (NodeId v = 0; v < n; ++v) memb[v] = (v % 5) != 4;
  for (NodeId v = 0; v < n; ++v) {
    if (!memb[v]) continue;
    int kept = 0;
    for (NodeId u : base.neighbors(v)) {
      if (u > v && memb[u] && kept < 2) {
        edges.emplace_back(v, u);
        ++kept;
      }
    }
  }
  Graph conf = Graph::from_edges(n, std::move(edges));

  // Proper input coloring of the conflict graph: node ids (K = n).
  std::vector<std::int64_t> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = v;

  congest::Network net(base);
  NetworkColoringTransport ref(net);
  const std::vector<bool> ref_mis = ref.conflict_mis(conf, memb, ids, n);
  for (int threads : {1, 3}) {
    runtime::EngineColoringTransport eng(base, threads);
    const std::vector<bool> eng_mis = eng.conflict_mis(conf, memb, ids, n);
    EXPECT_EQ(ref_mis, eng_mis) << "threads=" << threads;
    // Only rounds are charged for the conflict step; they must agree.
    expect_metrics_eq(ref.metrics(), eng.metrics(), "conflict_mis");
    EXPECT_TRUE(test::valid_mis(InducedSubgraph(conf, memb), eng_mis));
  }
}

TEST(TransportConformance, LinialPrimitiveMatches) {
  for (const auto& [name, g] : connected_corpus()) {
    congest::Network net(g);
    NetworkColoringTransport ref(net);
    runtime::EngineColoringTransport eng(g, 2);
    const InducedSubgraph all = test::all_active(g);
    const LinialResult a = ref.linial(all, nullptr, 0);
    const LinialResult b = eng.linial(all, nullptr, 0);
    EXPECT_EQ(a.coloring, b.coloring) << name;
    EXPECT_EQ(a.num_colors, b.num_colors) << name;
    expect_metrics_eq(ref.metrics(), eng.metrics(), name + " linial");
  }
}

}  // namespace
}  // namespace dcolor
