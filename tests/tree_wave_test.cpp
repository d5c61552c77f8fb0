// The Lemma 2.6 wave kernel (src/congest/tree.h) against its per-round
// oracle. Both ColoringTransports run every seed-fixing convergecast and
// broadcast as one sequential sweep with a closed-form charge; the oracle
// below runs the same waves as NodePrograms, one ParallelEngine round per
// tree level with real messages on every tree edge. The suites check the
// bound trees against a test-local recomputation, and compare the sums
// and the full Metrics of the kernel, run through both transports
// (congest::Network and the parallel engine), against the oracle on the
// engine at 1 and 3 threads:
//  - over BFS trees (paths, stars, grids, random trees, a single node)
//    and cluster trees (real decompose() clusters with Steiner nodes, a
//    single node, a cluster whose tree_depth exceeds its deepest level);
//  - at bandwidths 12, 40, 64 and 128 bits.
// A final suite checks that both transports reject, at bind time, a
// cluster tree whose parent edge is not a graph edge or whose one
// parentless node is not the cluster's root.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/runtime/parallel_engine.h"
#include "src/runtime/theorem11_program.h"
#include "src/util/bits.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

using congest::Metrics;
using congest::TreeData;
using runtime::Inbox;
using runtime::NodeProgram;
using runtime::Outbox;
using runtime::ParallelEngine;
using runtime::Roster;

// ------------------------------------------------------------ the oracle

std::uint64_t low_bits(std::uint64_t x, int bits) {
  return bits >= 64 ? x : (x & ((std::uint64_t{1} << bits) - 1));
}

Roster level_roster(const TreeData& t, int l) {
  const std::int64_t b = t.level_off[static_cast<std::size_t>(l)];
  return Roster::of(t.level_nodes.data() + b,
                    static_cast<std::size_t>(t.level_off[static_cast<std::size_t>(l) + 1] - b));
}

// Children lists of the bound tree, ascending (level rosters are).
std::vector<std::vector<NodeId>> children_of(const TreeData& t, NodeId n) {
  std::vector<std::vector<NodeId>> ch(static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < t.level_nodes.size(); ++i) {
    const NodeId v = t.level_nodes[i];
    ch[static_cast<std::size_t>(t.parent[v])].push_back(v);
  }
  return ch;
}

// Level-synchronous convergecast: in round r the nodes at level depth-r
// fold their children's accumulators into their own and send toward the
// root. Only the first accumulator's first bandwidth-sized chunk travels
// as a message; the parent checks it arrived from each child and reads
// the children's full accumulators across the phase barrier, and every
// further word or chunk rides the pipelined rounds the caller ticks.
class TreeAggregateProgram final : public NodeProgram {
 public:
  TreeAggregateProgram(const TreeData& t, std::vector<std::vector<std::uint64_t>>* acc,
                       int first_chunk_bits, NodeId n)
      : tree_(&t), acc_(acc), bits_(first_chunk_bits), children_(children_of(t, n)) {}

  void init(NodeId v, Outbox& out) override {
    if (tree_->depth > 0 && tree_->level[v] == tree_->depth) send_up(v, out);
  }

  void on_round(std::int64_t, NodeId v, const Inbox& in, Outbox& out) override {
    const auto& kids = children_[static_cast<std::size_t>(v)];
    std::size_t heard = 0;
    in.for_each([&](NodeId from, std::uint64_t payload) {
      if (std::find(kids.begin(), kids.end(), from) == kids.end() ||
          payload != low_bits((*acc_)[0][from], bits_)) {
        throw std::logic_error("convergecast message from a non-child or with a wrong value");
      }
      ++heard;
    });
    if (heard != kids.size()) throw std::logic_error("a child's convergecast message is missing");
    for (auto& a : *acc_) {
      for (const NodeId c : kids) a[v] = sat_add_u64(a[v], a[c]);
    }
    if (v != tree_->root) send_up(v, out);
  }

  bool done(std::int64_t rounds) override { return rounds == tree_->depth; }

  Roster roster(std::int64_t round) override {
    return level_roster(*tree_, tree_->depth - static_cast<int>(round));
  }

 private:
  void send_up(NodeId v, Outbox& out) {
    out.send(tree_->parent[v], low_bits((*acc_)[0][v], bits_), bits_);
  }

  const TreeData* tree_;
  std::vector<std::vector<std::uint64_t>>* acc_;
  int bits_;
  std::vector<std::vector<NodeId>> children_;
};

// Root-to-all broadcast: level-r nodes forward to their children in
// round r; 1-bit values go over the flag plane. Every non-root node checks
// it heard its parent the round it forwards.
class TreeBroadcastProgram final : public NodeProgram {
 public:
  TreeBroadcastProgram(const Graph& g, const TreeData& t, std::uint64_t value, int first_chunk_bits)
      : g_(&g), tree_(&t), value_(low_bits(value, first_chunk_bits)), bits_(first_chunk_bits),
        children_(children_of(t, g.num_nodes())) {}

  void init(NodeId v, Outbox& out) override {
    if (tree_->depth > 0) forward(v, out);
  }

  void on_round(std::int64_t, NodeId v, const Inbox& in, Outbox& out) override {
    bool heard = false;
    in.for_each([&](NodeId from, std::uint64_t payload) {
      heard = heard || (from == tree_->parent[v] && payload == value_);
    });
    if (!heard) throw std::logic_error("broadcast did not reach a tree node");
    forward(v, out);
  }

  bool done(std::int64_t rounds) override { return rounds == tree_->depth; }

  // Round r forwards from level r (init from the root).
  Roster roster(std::int64_t round) override {
    return level_roster(*tree_, static_cast<int>(round));
  }

 private:
  void forward(NodeId v, Outbox& out) {
    const auto nb = g_->neighbors(v);
    for (const NodeId c : children_[static_cast<std::size_t>(v)]) {
      if (bits_ == 1) {
        out.send_flag_nth(static_cast<int>(std::lower_bound(nb.begin(), nb.end(), c) - nb.begin()));
      } else {
        out.send(c, value_, bits_);
      }
    }
  }

  const Graph* g_;
  const TreeData* tree_;
  std::uint64_t value_;
  int bits_;
  std::vector<std::vector<NodeId>> children_;
};

int chunks(int bits, int bandwidth) { return (bits + bandwidth - 1) / bandwidth; }

// The oracle convergecast of the Q32.32 saturating sums of each of
// `values` over the tree, charged as a `value_bits`-bit wave. Returns
// the root's sums.
std::vector<std::uint64_t> oracle_aggregate(ParallelEngine& eng, const TreeData& t,
                                            int value_bits,
                                            const std::vector<const std::vector<long double>*>& values) {
  const NodeId n = eng.graph().num_nodes();
  std::vector<std::vector<std::uint64_t>> acc(values.size(),
                                              std::vector<std::uint64_t>(static_cast<std::size_t>(n)));
  for (std::size_t k = 0; k < values.size(); ++k) {
    for (const NodeId v : t.level_nodes) acc[k][v] = congest::to_fixed((*values[k])[v]);
  }
  TreeAggregateProgram prog(t, &acc, std::min(64, eng.bandwidth_bits()), n);
  eng.run(prog);
  eng.tick(chunks(value_bits, eng.bandwidth_bits()) - 1);
  std::vector<std::uint64_t> sums;
  for (const auto& a : acc) sums.push_back(a[t.root]);
  return sums;
}

void oracle_broadcast(ParallelEngine& eng, const TreeData& t, std::uint64_t value, int bits) {
  TreeBroadcastProgram prog(eng.graph(), t, value, std::min(bits, eng.bandwidth_bits()));
  eng.run(prog);
  eng.tick(chunks(bits, eng.bandwidth_bits()) - 1);
}

// ------------------------------------------------------------ corpus

void expect_metrics_eq(const Metrics& a, const Metrics& b, const std::string& where) {
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << where;
}

// A random tree: node i > 0 hangs off a uniformly chosen earlier node.
Graph random_tree(NodeId n, std::uint64_t salt) {
  auto rng = test::make_rng(salt);
  std::vector<std::pair<NodeId, NodeId>> e;
  for (NodeId i = 1; i < n; ++i) {
    e.emplace_back(static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(i))), i);
  }
  return Graph::from_edges(n, std::move(e));
}

// A star whose center is the last id, so the root 0 is a leaf.
Graph leaf_rooted_star(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> e;
  for (NodeId i = 0; i + 1 < n; ++i) e.emplace_back(i, n - 1);
  return Graph::from_edges(n, std::move(e));
}

// The whole of a tree graph as one cluster rooted at `root`, its nodes
// in BFS order (parents first) and its declared depth `extra` levels
// beyond the deepest one.
Cluster whole_tree_cluster(const Graph& g, NodeId root, int extra) {
  Cluster c;
  c.root = root;
  std::vector<NodeId> level(static_cast<std::size_t>(g.num_nodes()), -1);
  level[static_cast<std::size_t>(root)] = 0;
  c.tree_nodes = {root};
  c.tree_parent = {-1};
  for (std::size_t i = 0; i < c.tree_nodes.size(); ++i) {
    const NodeId v = c.tree_nodes[i];
    c.tree_depth = std::max(c.tree_depth, static_cast<int>(level[static_cast<std::size_t>(v)]));
    for (const NodeId u : g.neighbors(v)) {
      if (level[static_cast<std::size_t>(u)] >= 0) continue;
      level[static_cast<std::size_t>(u)] = level[static_cast<std::size_t>(v)] + 1;
      c.tree_nodes.push_back(u);
      c.tree_parent.push_back(v);
    }
  }
  c.members = c.tree_nodes;
  c.tree_depth += extra;
  return c;
}

std::vector<test::NamedGraph> bfs_corpus() {
  std::vector<test::NamedGraph> v;
  v.push_back({"path40", make_path(40)});
  v.push_back({"star30", make_star(30)});
  v.push_back({"leafstar25", leaf_rooted_star(25)});
  v.push_back({"grid6x7", make_grid(6, 7)});
  v.push_back({"randtree80", random_tree(80, 0x7ee)});
  v.push_back({"randtree200", random_tree(200, 0x7ef)});
  v.push_back({"single", make_path(1)});
  return v;
}

constexpr int kBandwidths[] = {12, 40, 64, 128};

std::vector<long double> node_values(NodeId n, std::uint64_t salt) {
  auto rng = test::make_rng(salt);
  std::vector<long double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = static_cast<long double>(rng.next_u64() % 4096) / 256.0L;
  return x;
}

// The tree both transports must bind, recomputed here without the
// library's tree builders: for a BFS tree from node 0 (`cluster` null),
// hop distances and, as parent, the smallest-id neighbour one level up;
// for a cluster, its own parents and the levels they imply. depth is the
// deepest level, never below the cluster's tree_depth.
struct ExpectedTree {
  std::vector<NodeId> nodes;
  std::vector<int> level;
  std::vector<NodeId> parent;
  int depth = 0;
};

ExpectedTree expected_tree(const Graph& g, const Cluster* cluster) {
  ExpectedTree t;
  t.level.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  t.parent.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  if (cluster == nullptr) {
    t.nodes = {0};
    t.level[0] = 0;
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      for (const NodeId u : g.neighbors(t.nodes[i])) {
        if (t.level[static_cast<std::size_t>(u)] >= 0) continue;
        t.level[static_cast<std::size_t>(u)] = t.level[static_cast<std::size_t>(t.nodes[i])] + 1;
        t.nodes.push_back(u);
      }
    }
    for (const NodeId v : t.nodes) {
      for (const NodeId u : g.neighbors(v)) {
        if (t.level[static_cast<std::size_t>(u)] + 1 != t.level[static_cast<std::size_t>(v)]) continue;
        NodeId& p = t.parent[static_cast<std::size_t>(v)];
        if (p < 0 || u < p) p = u;
      }
    }
  } else {
    t.nodes = cluster->tree_nodes;
    t.depth = cluster->tree_depth;
    for (std::size_t i = 0; i < t.nodes.size(); ++i) {
      const NodeId p = cluster->tree_parent[i];
      t.parent[static_cast<std::size_t>(t.nodes[i])] = p;
      t.level[static_cast<std::size_t>(t.nodes[i])] = p < 0 ? 0 : t.level[static_cast<std::size_t>(p)] + 1;
    }
  }
  for (const NodeId v : t.nodes) t.depth = std::max(t.depth, t.level[static_cast<std::size_t>(v)]);
  return t;
}

void expect_tree_eq(const ExpectedTree& want, const TreeData& got, const std::string& where) {
  EXPECT_EQ(got.depth, want.depth) << where;
  EXPECT_EQ(got.level_nodes.size(), want.nodes.size()) << where;
  for (const NodeId v : want.nodes) {
    EXPECT_EQ(got.level[static_cast<std::size_t>(v)], want.level[static_cast<std::size_t>(v)])
        << where << " node " << v;
    EXPECT_EQ(got.parent[static_cast<std::size_t>(v)], want.parent[static_cast<std::size_t>(v)])
        << where << " node " << v;
  }
}

// Binds `tree` (a BFS tree from node 0 when `cluster` is null, else the
// cluster's tree) on the oracle's engine, with no Metrics left over.
void bind_oracle(ParallelEngine& eng, const Cluster* cluster, TreeData* tree) {
  if (cluster == nullptr) {
    runtime::build_tree_data(eng, 0, tree);
  } else {
    congest::bind_cluster_tree(eng.graph(), *cluster, tree);
  }
  eng.reset_metrics();
}

// One seed bit on every executor: the oracle on the engine at 1 and 3
// threads against the kernel through both transports — aggregate_pair
// sums and Metrics, then broadcast_bit Metrics — plus a 13-bit broadcast
// charged by wave_cost against the oracle's slot-plane broadcast.
void check_tree(const Graph& g, const Cluster* cluster, const std::string& name) {
  const NodeId n = g.num_nodes();
  const std::vector<long double> v0 = node_values(n, 0xa0), v1 = node_values(n, 0xa1);
  const ExpectedTree want_tree = expected_tree(g, cluster);
  for (const int bw : kBandwidths) {
    congest::Network net(g, bw);
    NetworkColoringTransport ref(net);
    runtime::EngineColoringTransport eng_t(g, 1, bw);
    if (cluster == nullptr) {
      ref.build_tree(0);
      eng_t.build_tree(0);
    } else {
      ref.bind_cluster(*cluster);
      eng_t.bind_cluster(*cluster);
    }
    net.reset_metrics();
    eng_t.engine().reset_metrics();
    const auto net_sums = ref.aggregate_pair(v0, v1);
    const auto eng_sums = eng_t.aggregate_pair(v0, v1);
    const Metrics net_agg = net.metrics(), eng_agg = eng_t.metrics();
    net.reset_metrics();
    eng_t.engine().reset_metrics();
    ref.broadcast_bit(1);
    eng_t.broadcast_bit(1);
    const Metrics net_bc = net.metrics(), eng_bc = eng_t.metrics();
    const std::string bound = name + " B=" + std::to_string(bw);
    expect_tree_eq(want_tree, eng_t.tree(), bound + " engine transport");
    // A 1-bit broadcast costs exactly one round per tree level.
    EXPECT_EQ(net_bc.rounds, want_tree.depth) << bound;
    EXPECT_EQ(eng_bc.rounds, want_tree.depth) << bound;

    for (const int threads : {1, 3}) {
      const std::string where = name + " B=" + std::to_string(bw) + " t=" + std::to_string(threads);
      ParallelEngine eng(g, threads, bw);
      TreeData tree;
      bind_oracle(eng, cluster, &tree);
      expect_tree_eq(want_tree, tree, where + " oracle");
      EXPECT_EQ(eng_t.tree().level_off, tree.level_off) << where;
      EXPECT_EQ(eng_t.tree().level_nodes, tree.level_nodes) << where;

      long double want0, want1;
      if (cluster != nullptr) {
        const auto sums = oracle_aggregate(eng, tree, 128, {&v0, &v1});
        want0 = congest::from_fixed(sums[0]);
        want1 = congest::from_fixed(sums[1]);
      } else {
        // The BFS form: one 64-bit wave plus one charged round for the
        // unquantized second sum.
        want0 = congest::from_fixed(oracle_aggregate(eng, tree, 64, {&v0})[0]);
        eng.tick(1);
        want1 = 0.0L;
        for (const long double x : v1) want1 += x;
      }
      EXPECT_EQ(net_sums.first, want0) << where;
      EXPECT_EQ(net_sums.second, want1) << where;
      EXPECT_EQ(eng_sums.first, want0) << where;
      EXPECT_EQ(eng_sums.second, want1) << where;
      expect_metrics_eq(net_agg, eng.metrics(), where + " aggregate, Network");
      expect_metrics_eq(eng_agg, eng.metrics(), where + " aggregate, engine");

      eng.reset_metrics();
      oracle_broadcast(eng, tree, 1, 1);
      expect_metrics_eq(net_bc, eng.metrics(), where + " broadcast, Network");
      expect_metrics_eq(eng_bc, eng.metrics(), where + " broadcast, engine");

      eng.reset_metrics();
      oracle_broadcast(eng, tree, 0x1abc, 13);
      expect_metrics_eq(congest::wave_cost(tree, 13, bw), eng.metrics(), where + " 13-bit");
    }
  }
}

// ------------------------------------------------------------ suites

TEST(TreeWaveConformance, BfsTreesMatchOracle) {
  for (const auto& [name, g] : bfs_corpus()) check_tree(g, nullptr, name);
}

TEST(TreeWaveConformance, WholeTreeClustersMatchOracle) {
  for (const auto& [name, g] : bfs_corpus()) {
    const NodeId root = g.num_nodes() / 2;
    const Cluster c = whole_tree_cluster(g, root, 0);
    check_tree(g, &c, name + " cluster");
  }
}

// A declared tree_depth beyond the deepest level binds that depth: the
// empty levels still cost a round each, in the oracle and the kernel.
TEST(TreeWaveConformance, EmptyDeepLevelsAreCharged) {
  const Graph path = make_path(9);
  const Cluster deep = whole_tree_cluster(path, 0, 3);
  check_tree(path, &deep, "path9 depth+3");
  TreeData t;
  congest::bind_cluster_tree(path, deep, &t);
  EXPECT_EQ(t.depth, 11);
  EXPECT_EQ(congest::wave_cost(t, 1, 40).rounds, 11);

  // A single-node cluster: depth 0 binds no rounds; depth 2 binds two.
  const Graph g = make_grid(3, 3);
  Cluster single;
  single.root = 4;
  single.members = single.tree_nodes = {4};
  single.tree_parent = {-1};
  check_tree(g, &single, "single");
  single.tree_depth = 2;
  check_tree(g, &single, "single depth 2");
}

// Sums past 64 bits clamp in the oracle's per-level adds and in the
// kernel's fold alike.
TEST(TreeWaveConformance, SaturatedSumsMatchOracle) {
  const Graph g = make_star(5);
  const Cluster c = whole_tree_cluster(g, 0, 0);
  const std::vector<long double> big(5, 2.0e9L);  // each encoding < 2^63
  ParallelEngine eng(g, 1);
  TreeData tree;
  bind_oracle(eng, &c, &tree);
  const auto sums = oracle_aggregate(eng, tree, 128, {&big, &big});
  EXPECT_EQ(sums[0], ~std::uint64_t{0});
  EXPECT_EQ(sums[1], ~std::uint64_t{0});
  std::vector<std::uint64_t> acc;
  EXPECT_EQ(congest::tree_fixed_sum(tree, big, &acc), sums[0]);
  runtime::EngineColoringTransport kernel(g, 1);
  kernel.bind_cluster(c);
  const auto got = kernel.aggregate_pair(big, big);
  EXPECT_EQ(got.first, congest::from_fixed(sums[0]));
  EXPECT_EQ(got.second, congest::from_fixed(sums[1]));
}

// Real network-decomposition clusters, Steiner nodes included: every
// cluster of every decomposition in the corpus, the oracle against the
// kernel at each bandwidth.
TEST(ClusterTreeParity, AggregateAndBroadcastMatchOnCorpus) {
  std::vector<test::NamedGraph> corpus = test::stress_corpus();
  corpus.push_back({"path64", make_path(64)});
  int steiner_clusters = 0;
  for (const auto& [name, g] : corpus) {
    const NetworkDecomposition d = decompose(g);
    for (const Cluster& c : d.clusters) {
      if (c.tree_nodes.size() > c.members.size()) ++steiner_clusters;
      check_tree(g, &c, name + " cluster root=" + std::to_string(c.root));
    }
  }
  EXPECT_GT(steiner_clusters, 0) << "the corpus should exercise Steiner nodes";
}

// The kernel is sequential, so the thread count only reaches the oracle:
// at any thread count it must agree with the kernel on the largest
// cluster.
TEST(ClusterTreeParity, ThreadCountCannotPerturbCharges) {
  auto g = make_clustered(5, 12, 0.5, 10, test::kTestSeed + 2);
  const auto d = decompose(g);
  const Cluster* big = &d.clusters[0];
  for (const auto& c : d.clusters) {
    if (c.tree_nodes.size() > big->tree_nodes.size()) big = &c;
  }
  std::vector<long double> v0(g.num_nodes(), 0.5L), v1(g.num_nodes(), 0.25L);
  runtime::EngineColoringTransport kernel(g, 1);
  kernel.bind_cluster(*big);
  const auto want = kernel.aggregate_pair(v0, v1);
  for (const int threads : {2, 4, 8}) {
    ParallelEngine eng(g, threads);
    TreeData tree;
    bind_oracle(eng, big, &tree);
    EXPECT_EQ(tree.depth, expected_tree(g, big).depth) << threads;
    EXPECT_EQ(tree.depth, kernel.tree().depth) << threads;
    const auto sums = oracle_aggregate(eng, tree, 128, {&v0, &v1});
    EXPECT_EQ(congest::from_fixed(sums[0]), want.first) << threads;
    EXPECT_EQ(congest::from_fixed(sums[1]), want.second) << threads;
    expect_metrics_eq(eng.metrics(), kernel.metrics(), "t=" + std::to_string(threads));
  }
}

// A cluster tree whose parent edge is not a graph edge: on the 4-path
// 0-1-2-3, node 3 hangs off node 0. Both transports refuse to bind it,
// before any wave could run over the non-edge; likewise a tree whose
// parentless node is not exactly cluster.root. The legal tree binds.
TEST(BindCluster, RejectsTreeParentThatIsNotANeighbour) {
  const Graph g = make_path(4);
  Cluster bad;
  bad.root = 0;
  bad.members = bad.tree_nodes = {0, 1, 2, 3};
  bad.tree_parent = {-1, 0, 1, 0};
  congest::Network net(g);
  NetworkColoringTransport ref(net);
  runtime::EngineColoringTransport eng(g, 1);
  EXPECT_THROW(ref.bind_cluster(bad), congest::CongestViolation);
  EXPECT_THROW(eng.bind_cluster(bad), congest::CongestViolation);

  // Parentless nodes: a second one, or one that is not cluster.root.
  Cluster two_roots = bad;
  two_roots.tree_parent = {-1, 0, 1, -1};
  EXPECT_THROW(ref.bind_cluster(two_roots), congest::CongestViolation);
  EXPECT_THROW(eng.bind_cluster(two_roots), congest::CongestViolation);
  Cluster wrong_root = bad;
  wrong_root.root = 1;
  wrong_root.tree_parent = {-1, 0, 1, 2};
  EXPECT_THROW(ref.bind_cluster(wrong_root), congest::CongestViolation);
  EXPECT_THROW(eng.bind_cluster(wrong_root), congest::CongestViolation);

  Cluster good = bad;
  good.tree_parent = {-1, 0, 1, 2};
  EXPECT_NO_THROW(ref.bind_cluster(good));
  EXPECT_NO_THROW(eng.bind_cluster(good));
  EXPECT_EQ(eng.tree().depth, 3);
}

}  // namespace
}  // namespace dcolor
