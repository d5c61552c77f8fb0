// Golden pins of the four CONGEST primitives as congest::Network runs
// them: Linial's colour reduction, the BFS flood of the Lemma 2.6 tree,
// the colour-class MIS and the one-round exchange along target lists.
//
// The values were captured from the sequential Network loop forms these
// primitives had before each became a single NodeProgram shared by both
// executors. Network-vs-engine parity cannot see a change that hits both
// executors alike; these pins fail on it. A deliberate change to a
// primitive or its charging must update them in the same commit and say
// so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/benchkit/verify.h"
#include "src/coloring/derand_channel.h"
#include "src/coloring/linial.h"
#include "src/coloring/mis.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/linial_program.h"
#include "src/runtime/theorem11_program.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

using namespace dcolor::runtime;

struct Pin {
  std::uint64_t output_hash;
  std::int64_t extra;  // num_colors, tree depth, MIS size or bandwidth
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t total_bits;
  int max_message_bits;
};

void expect_pin(const Pin& want, std::uint64_t output_hash, std::int64_t extra,
                const congest::Metrics& m, const std::string& name) {
  EXPECT_EQ(output_hash, want.output_hash) << name;
  EXPECT_EQ(extra, want.extra) << name;
  EXPECT_EQ(m.rounds, want.rounds) << name;
  EXPECT_EQ(m.messages, want.messages) << name;
  EXPECT_EQ(m.total_bits, want.total_bits) << name;
  EXPECT_EQ(m.max_message_bits, want.max_message_bits) << name;
}

// Every third node switched off: an active subgraph whose messages
// still travel over the whole network.
InducedSubgraph thinned(const Graph& g) {
  std::vector<bool> on(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) on[v] = v % 3 != 0;
  return InducedSubgraph(g, on);
}

Graph sparse_gnp() { return make_gnp(3000, 0.001, test::kTestSeed); }

TEST(NetworkPrimitiveGolden, Linial) {
  struct Case {
    std::string name;
    Graph g;
    int iterations;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"cycle64", make_cycle(64), 1, {5012862970928035589ull, 25, 1, 128, 768, 6}},
      {"tree63", make_binary_tree(63), 1, {2549640314746258678ull, 49, 1, 124, 744, 6}},
      {"grid40x40", make_grid(40, 40), 2, {4414474988952977545ull, 121, 2, 12480, 118560, 11}},
      {"nearreg1000d4", make_near_regular(1000, 4, test::kTestSeed + 1), 1,
       {12117108228137734575ull, 121, 1, 4000, 40000, 10}},
      {"gnp3000", sparse_gnp(), 1, {14747487920775512983ull, 529, 1, 9054, 108648, 12}},
  };
  for (const Case& c : cases) {
    congest::Network net(c.g);
    const LinialResult res = linial_coloring(net, test::all_active(c.g));
    ASSERT_TRUE(test::proper_on_active(test::all_active(c.g), res.coloring)) << c.name;
    expect_pin(c.pin, benchkit::checksum_values(res.coloring), res.num_colors, net.metrics(),
               c.name);
    EXPECT_EQ(res.iterations, c.iterations) << c.name;
  }
}

TEST(NetworkPrimitiveGolden, LinialOnActiveSubgraph) {
  const Graph g = sparse_gnp();
  const InducedSubgraph active = thinned(g);
  congest::Network from_ids(g);
  const LinialResult a = linial_coloring(from_ids, active);
  ASSERT_TRUE(test::proper_on_active(active, a.coloring));
  expect_pin({14731087719862394785ull, 289, 1, 4012, 48144, 12},
             benchkit::checksum_values(a.coloring), a.num_colors, from_ids.metrics(), "from ids");
  EXPECT_EQ(a.iterations, 1);

  // A reduction from a proper input colouring with a wider palette, at
  // B = 14.
  std::vector<std::int64_t> input(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) input[v] = 3 * v + 1;
  congest::Network narrow(g, 14);
  const LinialResult b = linial_coloring(narrow, active, &input, 3 * g.num_nodes());
  ASSERT_TRUE(test::proper_on_active(active, b.coloring));
  expect_pin({18370605870315407896ull, 289, 2, 8024, 96288, 14},
             benchkit::checksum_values(b.coloring), b.num_colors, narrow.metrics(),
             "from input, B=14");
  EXPECT_EQ(b.iterations, 2);
}

TEST(NetworkPrimitiveGolden, BfsFlood) {
  struct Case {
    std::string name;
    Graph g;
    NodeId root;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"cycle64", make_cycle(64), 0, {15905312157527771548ull, 32, 33, 128, 896, 7}},
      {"grid6x8", make_grid(6, 8), 17, {5264720419584734683ull, 9, 10, 164, 984, 6}},
      {"tree63", make_binary_tree(63), 0, {884907686862544435ull, 5, 6, 124, 744, 6}},
      {"nearreg96d8", make_near_regular(96, 8, test::kTestSeed + 1), 5,
       {13268970060539178470ull, 3, 4, 740, 5180, 7}},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(is_connected(c.g)) << c.name;
    congest::Network net(c.g);
    congest::TreeData tree;
    build_tree_data(net, c.root, &tree);
    std::vector<std::int64_t> shape;
    for (NodeId v = 0; v < c.g.num_nodes(); ++v) shape.push_back(tree.parent[v]);
    for (NodeId v = 0; v < c.g.num_nodes(); ++v) shape.push_back(tree.level[v]);
    expect_pin(c.pin, benchkit::checksum_values(shape), tree.depth, net.metrics(), c.name);
    EXPECT_EQ(tree.root, c.root) << c.name;
  }
}

TEST(NetworkPrimitiveGolden, ColorClassMis) {
  struct Case {
    std::string name;
    Graph g;
    bool thin;
    Pin pin;
  };
  const std::vector<Case> cases = {
      {"grid40x40", make_grid(40, 40), false, {4518737072590735309ull, 739, 121, 2880, 2880, 1}},
      {"gnp3000", sparse_gnp(), false, {11102518022380656384ull, 1402, 529, 3203, 3203, 1}},
      {"tree63", make_binary_tree(63), false, {3132676731156235013ull, 34, 49, 53, 53, 1}},
      {"gnp3000 thinned", sparse_gnp(), true, {8534008586379690756ull, 1112, 289, 1574, 1574, 1}},
  };
  for (const Case& c : cases) {
    const InducedSubgraph active = c.thin ? thinned(c.g) : test::all_active(c.g);
    // The proper colouring comes from a separate network, so the pinned
    // Metrics are the MIS's alone.
    congest::Network coloring_net(c.g);
    const LinialResult lin = linial_coloring(coloring_net, active);
    congest::Network net(c.g);
    const std::vector<bool> in_mis = mis_by_color_classes(net, active, lin.coloring,
                                                          lin.num_colors);
    ASSERT_TRUE(test::valid_mis(active, in_mis)) << c.name;
    std::int64_t size = 0;
    for (NodeId v = 0; v < c.g.num_nodes(); ++v) size += in_mis[v] ? 1 : 0;
    expect_pin(c.pin, benchkit::checksum_bits(in_mis), size, net.metrics(), c.name);
  }
}

TEST(NetworkPrimitiveGolden, ExchangeAlong) {
  // Every node whose id is not a multiple of 3 sends a 30-bit payload to
  // the neighbours u with (u + v) % 4 != 0; nodes keep their from-lists.
  const std::vector<Pin> pins = {
      {5398429594510690767ull, 12, 3, 160, 1920, 12},  // gnp48, B = 12
      {5398429594510690767ull, 28, 2, 160, 4480, 28},  // gnp48, default B
      {6097572145557911547ull, 12, 3, 82, 984, 12},    // grid6x8, B = 12
      {6097572145557911547ull, 28, 2, 82, 2296, 28},   // grid6x8, default B
  };
  const std::vector<Graph> graphs = {make_gnp(48, 0.12, test::kTestSeed), make_grid(6, 8)};
  std::size_t k = 0;
  for (const Graph& g : graphs) {
    const NodeId n = g.num_nodes();
    std::vector<std::vector<NodeId>> targets(n);
    std::vector<char> senders(n, 0);
    std::vector<std::uint64_t> payloads(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      senders[v] = v % 3 != 0;
      payloads[v] = (0x2b5f3a1dull * static_cast<std::uint64_t>(v + 1)) & ((1ull << 30) - 1);
      for (NodeId u : g.neighbors(v)) {
        if ((u + v) % 4 != 0) targets[v].push_back(u);
      }
    }
    for (const int bw : {12, 0}) {
      congest::Network net(g, bw);
      NetworkColoringTransport t(net);
      std::vector<std::vector<NodeId>> from(n, std::vector<NodeId>{-1});
      t.exchange_along(targets, senders, payloads, 30, &from);
      std::vector<std::int64_t> flat;
      for (NodeId v = 0; v < n; ++v) {
        flat.push_back(static_cast<std::int64_t>(from[v].size()));
        for (NodeId u : from[v]) flat.push_back(u);
      }
      const std::string name = "graph " + std::to_string(k / 2) + " B=" + std::to_string(bw);
      expect_pin(pins[k], benchkit::checksum_values(flat), t.bandwidth_bits(), net.metrics(),
                 name);
      EXPECT_EQ(t.metrics().rounds, net.metrics().rounds) << name;
      ++k;
    }
  }
}

}  // namespace
}  // namespace dcolor
