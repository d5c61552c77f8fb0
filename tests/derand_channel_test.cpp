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
#include <type_traits>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/coloring/derand_mis.h"
#include "src/coloring/linial.h"
#include "src/coloring/pair_prob.h"
#include "src/coloring/theorem11.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/decomposition/corollary12.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/runtime/coloring_transport.h"
#include "src/runtime/corollary12_program.h"
#include "src/util/bits.h"
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

// A decorator that forwards every call it must and nothing else, as
// perfbench's TimedColoringTransport does, so aggregate_pair_update
// takes the base-class default over the inner transport's public calls.
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

// Records the Lemma 2.6 phases run through it, forwarding only the pure
// virtuals. A phase opens at the first wave pair after an exchange: that
// exchange sent each participating node's threshold (b + 1 bits) along
// its conflict edges, and with the input colouring (the Linial result
// seen here, or `psi`) it gives the phase's coin specs and edges.
class PhaseRecorder final : public ColoringTransport {
 public:
  struct Phase {
    int b = 0;
    std::vector<CoinSpec> specs;
    std::vector<ConflictEdge> edges;
    std::vector<int> bits;  // one per wave pair, the stop pair's included
    std::vector<congest::Metrics> costs;  // each wave pair's charge
  };

  PhaseRecorder(ColoringTransport& inner, std::vector<std::int64_t> psi = {},
                std::int64_t colors = 0)
      : inner_(&inner), psi_(std::move(psi)), colors_(colors) {}

  const Graph& graph() const override { return inner_->graph(); }
  int bandwidth_bits() const override { return inner_->bandwidth_bits(); }
  LinialResult linial(const InducedSubgraph& active, const std::vector<std::int64_t>* initial,
                      std::int64_t initial_colors) override {
    LinialResult lin = inner_->linial(active, initial, initial_colors);
    psi_ = lin.coloring;
    colors_ = lin.num_colors;
    return lin;
  }
  void build_tree(NodeId root) override { inner_->build_tree(root); }
  void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<NodeId>>* from) override {
    inner_->exchange_along(targets, senders, payloads, bits, from);
    last_ = {targets, senders, payloads, bits};
    in_phase_ = false;
  }
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override {
    if (!in_phase_) open_phase();
    before_ = inner_->metrics();
    return inner_->aggregate_pair(values0, values1);
  }
  void broadcast_bit(int bit) override {
    inner_->broadcast_bit(bit);
    const congest::Metrics& now = inner_->metrics();
    congest::Metrics cost;
    cost.rounds = now.rounds - before_.rounds;
    cost.messages = now.messages - before_.messages;
    cost.total_bits = now.total_bits - before_.total_bits;
    phases.back().bits.push_back(bit);
    phases.back().costs.push_back(cost);
  }
  std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>& membership,
                                 const std::vector<std::int64_t>& input_coloring,
                                 std::int64_t input_colors) override {
    return inner_->conflict_mis(conf, membership, input_coloring, input_colors);
  }
  void tick(std::int64_t rounds) override { inner_->tick(rounds); }
  const congest::Metrics& metrics() const override { return inner_->metrics(); }

  // The coin colours' width w, as the bitwise engine derives it.
  int color_bits() const { return ceil_log2(std::max<std::uint64_t>(colors_, 2)); }

  std::vector<Phase> phases;

 private:
  struct Exchange {
    std::vector<std::vector<NodeId>> targets;
    std::vector<char> senders;
    std::vector<std::uint64_t> payloads;
    int bits = 0;
  };

  void open_phase() {
    in_phase_ = true;
    Phase& p = phases.emplace_back();
    p.b = last_.bits - 1;
    const auto n = static_cast<NodeId>(last_.senders.size());
    p.specs.assign(static_cast<std::size_t>(n), CoinSpec{0, 0});
    for (NodeId v = 0; v < n; ++v) {
      if (!last_.senders[v]) continue;
      p.specs[v] = CoinSpec{static_cast<std::uint64_t>(psi_[v]), last_.payloads[v]};
      for (const NodeId u : last_.targets[v]) {
        if (v < u) p.edges.push_back(ConflictEdge{v, u});
      }
    }
  }

  ColoringTransport* inner_;
  std::vector<std::int64_t> psi_;
  std::int64_t colors_;
  Exchange last_;
  bool in_phase_ = false;
  congest::Metrics before_;
};

// How often each kind of phase was seen across a test.
struct PhaseKinds {
  int no_free = 0;   // no free node: one wave pair
  int stopped = 0;   // decided after the first bit, before the last
  int full = 0;      // never decided before the last bit
};

// Each recorded phase ran exactly min(j + 1, d) wave pairs, j its first
// bit at which no free node is tight (recomputed node by node from the
// recorded bits, test::bitwise_node_tight), and each pair cost
// pair_wave_cost plus a 2-bit broadcast over `tree`.
void expect_stop_charges(const PhaseRecorder& rec, const congest::TreeData& tree,
                         congest::TreeForm form, int bw, const std::string& name,
                         PhaseKinds* kinds) {
  congest::Metrics per_pair = congest::pair_wave_cost(tree, form, bw);
  per_pair.merge(congest::wave_cost(tree, 2, bw));
  const int w = rec.color_bits();
  ASSERT_FALSE(rec.phases.empty()) << name;
  for (std::size_t i = 0; i < rec.phases.size(); ++i) {
    const PhaseRecorder::Phase& p = rec.phases[i];
    const std::string where = name + " phase " + std::to_string(i);
    const std::uint64_t full = std::uint64_t{1} << p.b;
    const int d = p.b * (w + 1);
    bool any_free = false;
    int want = d;
    std::vector<int> fixed;
    for (int j = 0; j < d; ++j) {
      bool any_tight = false;
      for (const CoinSpec& s : p.specs) {
        const bool free = s.threshold != 0 && s.threshold < full;
        any_free |= free;
        any_tight |= free && test::bitwise_node_tight(s.input_color, s.threshold, w, p.b, fixed);
      }
      if (!any_tight) {
        want = j + 1;
        break;
      }
      ASSERT_LT(static_cast<std::size_t>(j), p.bits.size()) << where;
      fixed.push_back(p.bits[static_cast<std::size_t>(j)]);
    }
    ASSERT_EQ(static_cast<int>(p.bits.size()), want) << where << " d=" << d;
    for (const congest::Metrics& cost : p.costs) {
      EXPECT_EQ(cost.rounds, per_pair.rounds) << where;
      EXPECT_EQ(cost.messages, per_pair.messages) << where;
      EXPECT_EQ(cost.total_bits, per_pair.total_bits) << where;
    }
    if (!any_free) {
      EXPECT_EQ(want, 1) << where;
      ++kinds->no_free;
    } else if (want < d) {
      ++kinds->stopped;
    } else {
      ++kinds->full;
    }
  }
}

// The stop charge, on both executors: every phase of Theorem 1.1 and of
// the derandomized MIS (BFS trees) and of Corollary 1.2's clusters
// (cluster trees, Steiner nodes included), at the default bandwidth and
// at B = 12, charges min(first decided bit + 1, d) wave pairs of one
// cost; a phase with no free node charges one.
template <typename Exec>
void check_stop_charges(int threads, const std::string& exec_name, PhaseKinds* kinds) {
  // An executor over g at bandwidth bw (0: the default), with `threads`
  // threads for the engine.
  auto make = [threads](const Graph& g, int bw) {
    if constexpr (std::is_same_v<Exec, runtime::ParallelEngine>) {
      return bw > 0 ? std::make_unique<Exec>(g, threads, bw) : std::make_unique<Exec>(g, threads);
    } else {
      return bw > 0 ? std::make_unique<Exec>(g, bw) : std::make_unique<Exec>(g);
    }
  };
  const Graph grid = make_grid(6, 7);
  const Graph gnp = make_gnp(40, 0.15, test::kTestSeed + 5);
  ASSERT_TRUE(is_connected(gnp));
  const Graph clustered = make_clustered(4, 10, 0.5, 8, test::kTestSeed + 3);
  for (const int bw : {0, 12}) {
    const std::string at = exec_name + " B=" + std::to_string(bw);
    for (const auto& [name, g] : std::vector<test::NamedGraph>{{"grid", grid}, {"gnp", gnp}}) {
      // Lists {0..deg(v)} in a colour space of 2^10: every node's
      // candidates share their top bits, so those phases have no free node.
      std::vector<std::vector<Color>> low(static_cast<std::size_t>(g.num_nodes()));
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        for (Color c = 0; c <= g.degree(v); ++c) low[v].push_back(c);
      }
      for (const ListInstance& inst :
           {ListInstance::random_lists(g, 2 * (g.max_degree() + 1), 13),
            ListInstance(g, 1 << 10, low)}) {
        const auto exec = make(g, bw);
        runtime::BasicColoringTransport<Exec> bare(*exec);
        PhaseRecorder rec(bare);
        PartialColoringOptions opts;
        opts.bandwidth_bits = bw;
        theorem11_run(rec, inst, opts);
        expect_stop_charges(rec, bare.tree(), congest::TreeForm::kBfs, bare.bandwidth_bits(),
                            at + " theorem11 " + name + " C=" +
                                std::to_string(inst.color_space()),
                            kinds);
      }
      {
        const auto exec = make(g, bw);
        runtime::BasicColoringTransport<Exec> bare(*exec);
        PhaseRecorder rec(bare);
        derandomized_mis_core(rec);
        expect_stop_charges(rec, bare.tree(), congest::TreeForm::kBfs, bare.bandwidth_bits(),
                            at + " mis " + name, kinds);
      }
    }
    const ListInstance inst =
        ListInstance::random_lists(clustered, 2 * (clustered.max_degree() + 1), 13);
    const auto global = make(clustered, bw);
    runtime::BasicColoringTransport<Exec> global_t(*global);
    const LinialResult lin = global_t.linial(test::all_active(clustered), nullptr, 0);
    PartialColoringOptions opts;
    opts.bandwidth_bits = bw;
    std::vector<Color> colors(static_cast<std::size_t>(clustered.num_nodes()), kUncolored);
    for (const Cluster& c : decompose(clustered).clusters) {
      ClusterTransport<Exec> ct(clustered, c, global_t.bandwidth_bits());
      std::vector<std::int64_t> psi(static_cast<std::size_t>(ct.local.graph.num_nodes()), 0);
      for (std::size_t i = 0; i < c.members.size(); ++i) psi[i] = lin.coloring[c.members[i]];
      PhaseRecorder rec(ct.transport, psi, lin.num_colors);
      color_cluster(c, rec, inst, lin, opts, colors);
      expect_stop_charges(rec, ct.transport.tree(), congest::TreeForm::kCluster,
                          global_t.bandwidth_bits(),
                          at + " cluster root=" + std::to_string(c.root), kinds);
    }
  }
}

TEST(StopCharge, EveryPhaseChargesUpToItsFirstDecidedBit) {
  PhaseKinds kinds;
  check_stop_charges<congest::Network>(1, "network", &kinds);
  for (const int threads : {1, 3}) {
    check_stop_charges<runtime::ParallelEngine>(threads, "engine t=" + std::to_string(threads),
                                                &kinds);
  }
  EXPECT_GT(kinds.no_free, 0);
  EXPECT_GT(kinds.stopped, 0);
  EXPECT_GT(kinds.full, 0);
}

// A Corollary12Transports decorator that hands out forwarding views of
// the inner backend's transports and runs each class through the base
// class's sequential loop.
class ForwardingCorollary12Transports final : public Corollary12Transports {
 public:
  explicit ForwardingCorollary12Transports(Corollary12Transports& inner) : inner_(&inner) {}
  ColoringTransport& global() override {
    if (!global_) global_.emplace(inner_->global());
    return *global_;
  }
  ColoringTransport& cluster(const Cluster& c) override {
    cluster_.emplace(inner_->cluster(c));
    return *cluster_;
  }

 private:
  Corollary12Transports* inner_;
  std::optional<ForwardingTransport> global_, cluster_;
};

// A decorator that overrides only the pure virtuals charges what the bare
// transport charges and changes no colour: Theorem 1.1 on both executors
// and Corollary 1.2 on the engine backend, against the sequential
// reference, at the default bandwidth and at B = 12.
TEST(StopCharge, ForwardingDecoratorMatchesBareTransport) {
  const Graph g = make_clustered(4, 10, 0.5, 8, test::kTestSeed + 3);
  const ListInstance inst = ListInstance::random_lists(g, 2 * (g.max_degree() + 1), 13);
  for (const int bw : {0, 12}) {
    PartialColoringOptions opts;
    opts.bandwidth_bits = bw;
    const std::string at = "B=" + std::to_string(bw);
    const Theorem11Result want11 = theorem11_solve(g, inst, opts);
    for (const int threads : {0, 1, 3}) {  // 0: congest::Network
      std::unique_ptr<ColoringTransport> bare;
      if (threads == 0) {
        bare = bw > 0 ? std::make_unique<runtime::NetworkColoringTransport>(g, bw)
                      : std::make_unique<runtime::NetworkColoringTransport>(g);
      } else {
        bare = bw > 0 ? std::make_unique<runtime::EngineColoringTransport>(g, threads, bw)
                      : std::make_unique<runtime::EngineColoringTransport>(g, threads);
      }
      ForwardingTransport forwarded(*bare);
      const Theorem11Result got = theorem11_run(forwarded, inst, opts);
      const std::string where = at + " theorem11 threads=" + std::to_string(threads);
      EXPECT_EQ(got.colors, want11.colors) << where;
      expect_metrics_eq(got.metrics, want11.metrics, where);
    }
    const Corollary12Result want12 = corollary12_solve(g, inst, opts);
    for (const int threads : {1, 3}) {
      runtime::EngineCorollary12Transports engine(g, threads, bw);
      ForwardingCorollary12Transports forwarded(engine);
      const Corollary12Result got = corollary12_run(g, inst, forwarded, opts);
      const std::string where = at + " corollary12 threads=" + std::to_string(threads);
      EXPECT_EQ(got.colors, want12.colors) << where;
      EXPECT_EQ(got.coloring_rounds, want12.coloring_rounds) << where;
      EXPECT_EQ(got.total_rounds, want12.total_rounds) << where;
      expect_metrics_eq(got.metrics, want12.metrics, where);
    }
  }
}

}  // namespace
}  // namespace dcolor
