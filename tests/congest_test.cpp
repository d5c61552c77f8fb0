#include <gtest/gtest.h>

#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"

namespace dcolor {
namespace {

using congest::TreeData;
using congest::CongestViolation;
using congest::Metrics;
using congest::Network;

TEST(MetricsTest, MergeSumsCountsAndMaxesMessageBits) {
  Metrics a;
  a.rounds = 3;
  a.messages = 10;
  a.total_bits = 80;
  a.max_message_bits = 8;
  Metrics b;
  b.rounds = 2;
  b.messages = 5;
  b.total_bits = 100;
  b.max_message_bits = 20;

  a.merge(b);
  EXPECT_EQ(a.rounds, 5);
  EXPECT_EQ(a.messages, 15);
  EXPECT_EQ(a.total_bits, 180);
  EXPECT_EQ(a.max_message_bits, 20);  // max, not sum

  // Merging a smaller max must keep the larger one, and merging a
  // default-constructed Metrics is the identity.
  Metrics small;
  small.max_message_bits = 4;
  a.merge(small);
  EXPECT_EQ(a.max_message_bits, 20);
  const Metrics before = a;
  a.merge(Metrics{});
  EXPECT_EQ(a.rounds, before.rounds);
  EXPECT_EQ(a.messages, before.messages);
  EXPECT_EQ(a.total_bits, before.total_bits);
  EXPECT_EQ(a.max_message_bits, before.max_message_bits);
}

TEST(Network, DeliversAfterRound) {
  auto g = make_path(3);
  Network net(g);
  net.send(0, 1, 42, 6);
  EXPECT_TRUE(net.inbox(1).empty());
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].payload, 42u);
  EXPECT_EQ(net.metrics().rounds, 1);
  EXPECT_EQ(net.metrics().messages, 1);
}

TEST(Network, RejectsNonEdge) {
  auto g = make_path(3);
  Network net(g);
  EXPECT_THROW(net.send(0, 2, 1, 1), CongestViolation);
}

TEST(Network, RejectsOversizedMessage) {
  auto g = make_path(3);
  Network net(g, 8);
  EXPECT_THROW(net.send(0, 1, 0, 9), CongestViolation);
}

TEST(Network, RejectsUndersizedDeclaration) {
  auto g = make_path(3);
  Network net(g);
  EXPECT_THROW(net.send(0, 1, 255, 4), CongestViolation);  // 255 needs 8 bits
}

TEST(Network, RejectsDoubleSendSameEdgeSameRound) {
  auto g = make_path(3);
  Network net(g);
  net.send(0, 1, 1, 1);
  EXPECT_THROW(net.send(0, 1, 2, 2), CongestViolation);
  // Opposite direction is fine.
  net.send(1, 0, 3, 2);
  net.advance_round();
  // Next round the edge is free again.
  net.send(0, 1, 1, 1);
  net.advance_round();
  EXPECT_EQ(net.metrics().messages, 3);
}

TEST(Network, BandwidthDefaultIsLogarithmic) {
  auto g = make_path(1000);
  Network net(g);
  EXPECT_GE(net.bandwidth_bits(), 2 * 10);
  EXPECT_LE(net.bandwidth_bits(), 2 * 10 + 16);
}

// Violation-path coverage: every way an algorithm can cheat the model —
// oversize payloads, double-sends on one edge per round, and declaring
// fewer bits than the payload's magnitude — must throw CongestViolation,
// and a rejected send must leave the network state untouched.

TEST(NetworkViolations, OversizeBoundaryIsExact) {
  auto g = make_path(3);
  Network net(g, 8);
  net.send(0, 1, 255, 8);  // exactly at the budget: allowed
  EXPECT_THROW(net.send(1, 2, 0, 9), CongestViolation);
  net.advance_round();
  EXPECT_EQ(net.metrics().max_message_bits, 8);
}

TEST(NetworkViolations, DeclaredBitsMustCoverMagnitude) {
  auto g = make_path(3);
  Network net(g);
  net.send(0, 1, 15, 4);                                  // 15 fits in 4 bits
  EXPECT_THROW(net.send(1, 2, 16, 4), CongestViolation);  // 16 needs 5
  // Wide-payload magnitude check: bandwidth 64 so only the declared-size
  // check can fire (~0 needs 64 bits, 63 declared).
  Network wide(g, 64);
  EXPECT_THROW(wide.send(1, 2, ~0ull, 63), CongestViolation);
  wide.send(1, 2, ~0ull, 64);  // full-width payload with honest declaration
}

TEST(NetworkViolations, RejectsSelfLoopSend) {
  auto g = make_path(3);
  Network net(g);
  EXPECT_THROW(net.send(1, 1, 0, 1), CongestViolation);
}

TEST(NetworkViolations, DoubleSendViaSendAll) {
  auto g = make_star(4);
  Network net(g);
  net.send_all(0, 1, 1);
  // The broadcast already used every incident edge of the center.
  EXPECT_THROW(net.send(0, 1, 1, 1), CongestViolation);
  EXPECT_THROW(net.send_all(0, 1, 1), CongestViolation);
  // Leaf-to-center is the opposite edge slot: still free.
  net.send(1, 0, 1, 1);
  net.advance_round();
  EXPECT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(3).size(), 1u);
}

TEST(NetworkViolations, FailedSendLeavesStateClean) {
  auto g = make_path(3);
  Network net(g, 8);
  EXPECT_THROW(net.send(0, 1, 0, 9), CongestViolation);
  EXPECT_EQ(net.metrics().messages, 0);
  // The rejected send must not have stamped the edge.
  net.send(0, 1, 7, 3);
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.metrics().messages, 1);
  EXPECT_EQ(net.metrics().total_bits, 3);
}

TEST(NetworkViolations, ResetMetricsClearsEdgeStamps) {
  auto g = make_path(2);
  Network net(g);
  net.send(0, 1, 1, 1);
  // Restarting the round counter must not alias old stamps with the new
  // round 0 (see reset_metrics); the edge is immediately usable again.
  net.reset_metrics();
  EXPECT_NO_THROW(net.send(0, 1, 1, 1));
}

TEST(BfsTreeTest, BuildsCorrectLevels) {
  auto g = make_path(8);
  Network net(g);
  TreeData t;
  congest::build_tree_data(net, 0, &t);
  EXPECT_EQ(t.depth, 7);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(t.level[v], v);
  EXPECT_EQ(t.parent[3], 2);
  EXPECT_EQ(t.parent[0], -1);
  // One node per level, listed level by level.
  EXPECT_EQ(t.level_off, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(t.level_nodes, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Flooding cost: eccentricity + 1 rounds.
  EXPECT_EQ(net.metrics().rounds, 8);
}

TEST(BfsTreeTest, DepthMatchesEccentricityOnGrid) {
  auto g = make_grid(5, 5);
  Network net(g);
  TreeData t;
  congest::build_tree_data(net, 0, &t);
  auto dist = bfs_distances(g, 0);
  int ecc = 0;
  for (int d : dist) ecc = std::max(ecc, d);
  EXPECT_EQ(t.depth, ecc);
  // Every level roster holds exactly the nodes at that distance, ascending.
  for (int l = 0; l <= t.depth; ++l) {
    std::vector<NodeId> want;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] == l) want.push_back(v);
    }
    const std::vector<NodeId> got(t.level_nodes.begin() + t.level_off[l],
                                  t.level_nodes.begin() + t.level_off[l + 1]);
    EXPECT_EQ(got, want) << "level " << l;
  }
}

TEST(BfsTreeTest, AggregateSums) {
  auto g = make_binary_tree(15);
  Network net(g);
  TreeData t;
  congest::build_tree_data(net, 0, &t);
  std::vector<long double> vals(15);
  std::uint64_t expect = 0;
  for (int i = 0; i < 15; ++i) {
    vals[i] = static_cast<long double>(i * 3 + 1);
    expect += congest::to_fixed(vals[i]);
  }
  std::vector<std::uint64_t> acc;
  EXPECT_EQ(congest::tree_fixed_sum(t, vals, &acc), expect);
  // Each node's accumulator ends as its subtree's sum: node 1's subtree
  // in a heap-ordered binary tree is {1, 3, 4, 7, 8, 9, 10}.
  std::uint64_t sub1 = 0;
  for (int i : {1, 3, 4, 7, 8, 9, 10}) sub1 += congest::to_fixed(vals[i]);
  EXPECT_EQ(acc[1], sub1);
  // A 16-bit value fits one message: depth rounds, one per tree edge.
  const auto before = net.metrics();
  net.charge(congest::wave_cost(t, 16, net.bandwidth_bits()));
  EXPECT_EQ(net.metrics().rounds - before.rounds, t.depth);
  EXPECT_EQ(net.metrics().messages - before.messages, 14);
  EXPECT_EQ(net.metrics().total_bits - before.total_bits, 14 * 16);
}

TEST(BfsTreeTest, AggregateSaturates) {
  auto g = make_path(3);
  Network net(g);
  TreeData t;
  congest::build_tree_data(net, 0, &t);
  // Each encoding fits 63 bits, the three together overflow 64: the sum
  // clamps instead of wrapping.
  const std::vector<long double> vals(3, 2.0e9L);
  std::vector<std::uint64_t> acc;
  EXPECT_EQ(congest::tree_fixed_sum(t, vals, &acc), ~std::uint64_t{0});
}

TEST(BfsTreeTest, AggregateWideValuesChargePipelining) {
  auto g = make_path(10);
  Network net(g, 20);
  TreeData t;
  congest::build_tree_data(net, 0, &t);
  const Metrics cost = congest::wave_cost(t, 64, net.bandwidth_bits());
  // 64 bits over 20-bit bandwidth = 4 chunks: depth + 3 rounds; the
  // first 20-bit chunk is the one message per tree edge.
  EXPECT_EQ(cost.rounds, t.depth + 3);
  EXPECT_EQ(cost.messages, 9);
  EXPECT_EQ(cost.total_bits, 9 * 20);
  EXPECT_EQ(cost.max_message_bits, 20);
}

TEST(BfsTreeTest, BroadcastReachesAll) {
  auto g = make_grid(4, 4);
  Network net(g);
  TreeData t;
  congest::build_tree_data(net, 0, &t);
  const auto before = net.metrics();
  net.charge(congest::wave_cost(t, 1, net.bandwidth_bits()));
  EXPECT_EQ(net.metrics().rounds - before.rounds, t.depth);
  // Every node but the root hears the bit once.
  EXPECT_EQ(net.metrics().messages - before.messages, 15);
  EXPECT_EQ(net.metrics().total_bits - before.total_bits, 15);
}

TEST(FixedPoint, RoundTrip) {
  for (long double x : {0.0L, 0.5L, 1.0L / 3.0L, 123.25L, 4095.999L}) {
    EXPECT_NEAR(static_cast<double>(congest::from_fixed(congest::to_fixed(x))),
                static_cast<double>(x), 1e-9);
  }
}

TEST(FixedPoint, AggregateFixedSumMatches) {
  auto g = make_cycle(12);
  Network net(g);
  TreeData t;
  congest::build_tree_data(net, 0, &t);
  std::vector<long double> vals(12);
  long double expect = 0;
  for (int i = 0; i < 12; ++i) {
    vals[i] = 1.0L / (i + 1);
    expect += vals[i];
  }
  std::vector<std::uint64_t> acc;
  const long double got = congest::from_fixed(congest::tree_fixed_sum(t, vals, &acc));
  EXPECT_NEAR(static_cast<double>(got), static_cast<double>(expect), 1e-8);
}

}  // namespace
}  // namespace dcolor
