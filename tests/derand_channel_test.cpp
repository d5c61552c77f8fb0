// ColoringTransport executor parity: the one transport implementation on
// the sequential congest::Network (runtime::NetworkColoringTransport)
// and on the parallel engine at 1 and 3 threads
// (runtime::EngineColoringTransport) must charge identical CONGEST costs
// and produce identical values for identical call sequences, the
// property the Theorem 1.1 port rests on. The suite replays each
// primitive that runs as a NodeProgram head-on: the BFS tree flood,
// conflict-edge exchanges with and without payload collection, the
// conflict-resolution MIS and Linial. The Lemma 2.6 waves run through
// one sequential kernel on both executors; tests/tree_wave_test.cpp
// holds that kernel to a per-round oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/coloring/linial.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/runtime/coloring_transport.h"
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

TEST(TransportConformance, BuildTreeMatches) {
  for (const auto& [name, g] : connected_corpus()) {
    const NodeId n = g.num_nodes();
    runtime::NetworkColoringTransport ref(g);
    ref.build_tree(0);
    for (int threads : {1, 3}) {
      runtime::EngineColoringTransport eng(g, threads);
      eng.build_tree(0);
      expect_metrics_eq(ref.metrics(), eng.metrics(), name + " after build_tree");
      // The same tree, node by node and level roster by level roster.
      const congest::TreeData& want = ref.tree();
      const congest::TreeData& got = eng.tree();
      EXPECT_EQ(got.depth, want.depth) << name;
      EXPECT_EQ(got.level_off, want.level_off) << name;
      EXPECT_EQ(got.level_nodes, want.level_nodes) << name;
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(got.level[v], want.level[v]) << name << " v=" << v;
        ASSERT_EQ(got.parent[v], want.parent[v]) << name << " v=" << v;
      }
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
  runtime::NetworkColoringTransport ref(net);
  for (int threads : {1, 3}) {
    runtime::EngineColoringTransport eng(g, threads);
    net.reset_metrics();

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

  runtime::NetworkColoringTransport ref(base);
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
    runtime::NetworkColoringTransport ref(g);
    const InducedSubgraph all = test::all_active(g);
    const LinialResult a = ref.linial(all, nullptr, 0);
    for (int threads : {1, 3}) {
      runtime::EngineColoringTransport eng(g, threads);
      const LinialResult b = eng.linial(all, nullptr, 0);
      EXPECT_EQ(a.coloring, b.coloring) << name;
      EXPECT_EQ(a.num_colors, b.num_colors) << name;
      expect_metrics_eq(ref.metrics(), eng.metrics(), name + " linial");
    }
  }
}

// A decorator that forwards every call it must and nothing else, so
// charge_seed_bits and aggregate_pair_update take the base-class
// defaults over the inner transport's public calls.
class ForwardingTransport final : public ColoringTransport {
 public:
  explicit ForwardingTransport(ColoringTransport& inner) : inner_(&inner) {}
  const Graph& graph() const override { return inner_->graph(); }
  int bandwidth_bits() const override { return inner_->bandwidth_bits(); }
  LinialResult linial(const InducedSubgraph& active, const std::vector<std::int64_t>* initial,
                      std::int64_t initial_colors) override {
    return inner_->linial(active, initial, initial_colors);
  }
  void build_tree(NodeId root) override { inner_->build_tree(root); }
  void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<NodeId>>* from) override {
    inner_->exchange_along(targets, senders, payloads, bits, from);
  }
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override {
    return inner_->aggregate_pair(values0, values1);
  }
  void broadcast_bit(int bit) override { inner_->broadcast_bit(bit); }
  std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>& membership,
                                 const std::vector<std::int64_t>& input_coloring,
                                 std::int64_t input_colors) override {
    return inner_->conflict_mis(conf, membership, input_coloring, input_colors);
  }
  void tick(std::int64_t rounds) override { inner_->tick(rounds); }
  const congest::Metrics& metrics() const override { return inner_->metrics(); }

 private:
  ColoringTransport* inner_;
};

// charge_seed_bits(v0, v1, count) charges exactly what `count` explicit
// (aggregate_pair, broadcast_bit(0)) pairs charge, and what a decorator
// taking the base-class default charges: on both executors, over BFS and
// cluster trees (Steiner nodes included), at B = 12, 40 and the default,
// for count = 0, 1 and 17. The values then count as moved: a following
// aggregate_pair_update returns the full form's sums on all three.
TEST(TransportConformance, ChargeSeedBitsMatchesPerBitCalls) {
  struct Case {
    std::string name;
    Graph g;
    std::optional<Cluster> cluster;  // none: a BFS tree from node 0
  };
  std::vector<Case> cases;
  int steiner = 0;
  for (auto& [name, g] : connected_corpus()) cases.push_back({name, g, std::nullopt});
  for (const auto& [name, g] :
       std::vector<test::NamedGraph>{{"clustered", make_clustered(5, 12, 0.5, 10, test::kTestSeed + 3)},
                                     {"grid12x12", make_grid(12, 12)}}) {
    for (const Cluster& c : decompose(g).clusters) {
      if (c.tree_nodes.size() > c.members.size()) ++steiner;
      cases.push_back({name + " root=" + std::to_string(c.root), g, c});
    }
  }
  ASSERT_GT(steiner, 0) << "no cluster with Steiner nodes";

  for (const Case& cs : cases) {
    const NodeId n = cs.g.num_nodes();
    std::vector<long double> v0(n), v1(n);
    for (NodeId v = 0; v < n; ++v) {
      v0[v] = 0.25L * (v % 7);
      v1[v] = 0.125L * (v % 5);
    }
    for (const std::optional<int> bw : {std::optional<int>(12), std::optional<int>(40),
                                        std::optional<int>()}) {
      for (const int threads : {0, 1, 3}) {  // 0: congest::Network
        for (const int count : {0, 1, 17}) {
          const std::string where = cs.name + " B=" + (bw ? std::to_string(*bw) : "default") +
                                    " threads=" + std::to_string(threads) +
                                    " count=" + std::to_string(count);
          auto make = [&]() -> std::unique_ptr<ColoringTransport> {
            if (threads == 0) {
              auto t = bw ? std::make_unique<runtime::NetworkColoringTransport>(cs.g, *bw)
                          : std::make_unique<runtime::NetworkColoringTransport>(cs.g);
              if (cs.cluster) t->bind_cluster(*cs.cluster);
              return t;
            }
            auto t = bw ? std::make_unique<runtime::EngineColoringTransport>(cs.g, threads, *bw)
                        : std::make_unique<runtime::EngineColoringTransport>(cs.g, threads);
            if (cs.cluster) t->bind_cluster(*cs.cluster);
            return t;
          };
          const auto fused = make(), calls = make(), inner = make();
          ForwardingTransport forwarded(*inner);
          ColoringTransport* const all[] = {fused.get(), calls.get(), &forwarded};
          for (ColoringTransport* t : all) {
            if (!cs.cluster) t->build_tree(0);
            t->aggregate_pair(v1, v0);  // an earlier seed bit, other values
          }
          const congest::Metrics before = fused->metrics();
          fused->charge_seed_bits(v0, v1, count);
          for (int i = 0; i < count; ++i) {
            calls->aggregate_pair(v0, v1);
            calls->broadcast_bit(0);
          }
          forwarded.charge_seed_bits(v0, v1, count);
          expect_metrics_eq(fused->metrics(), calls->metrics(), where + " vs calls");
          expect_metrics_eq(fused->metrics(), forwarded.metrics(), where + " vs default");
          if (count > 0) {
            EXPECT_GT(fused->metrics().rounds, before.rounds) << where;
          } else {
            expect_metrics_eq(fused->metrics(), before, where + " count 0");
          }

          if (count == 0) continue;
          std::vector<long double> w0 = v0, w1 = v1;
          std::vector<NodeId> moved;
          for (NodeId v = 0; v < n; v += 3) {
            w0[v] += 0.5L;
            w1[v] += 0.75L;
            moved.push_back(v);
          }
          const auto want = calls->aggregate_pair_update(w0, w1, moved);
          EXPECT_EQ(fused->aggregate_pair_update(w0, w1, moved), want) << where;
          EXPECT_EQ(forwarded.aggregate_pair_update(w0, w1, moved), want) << where;
          expect_metrics_eq(fused->metrics(), calls->metrics(), where + " update");
        }
      }
    }
  }
}

}  // namespace
}  // namespace dcolor
