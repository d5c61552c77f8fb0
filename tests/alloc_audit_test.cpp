// Steady-state allocation audit of the engine round loop: a counting
// global operator new verifies that, once warm, the hot paths of the
// derandomization pipelines allocate NOTHING per round — the engine's
// dispatch (serial fast path and pool path), the Lemma 2.6 wave kernel's
// aggregate/broadcast ops over BFS and cluster trees (including cluster
// rebinds), the conflict-edge exchanges, a full Linial run, a full
// color-class MIS run, and the fast pair-probability engine's per-seed-bit
// cycle. Any hot-path heap traffic reintroduced later fails here, not in
// a profiler.
//
// The counter also sums the requested bytes, which a call count alone
// cannot see grow: one Corollary 1.2 cluster's run must allocate the same
// calls and the same bytes whatever the size of the graph around it.
//
// The counter counts every operator new/new[] in the process (gtest
// included), so each audit snapshots the counter around ONLY the
// audited region.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/coloring/pair_prob.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/decomposition/corollary12.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/linial_program.h"
#include "src/runtime/parallel_engine.h"
#include "tests/test_support.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_new_bytes{0};

void count_new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

// Counting replacements for the usual global forms. Aligned-new is
// deliberately not replaced: nothing in the audited paths uses it, and
// the default aligned operators do not forward here.
void* operator new(std::size_t size) {
  count_new(size);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_new(size);
  return std::malloc(size > 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

// Out of line: once GCC inlines a replaced operator delete, it sees
// free() on a pointer from a (not inlined) operator new and warns
// (-Wmismatched-new-delete) about a pairing that is correct here.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dcolor::runtime {
namespace {

std::uint64_t allocs() { return g_news.load(std::memory_order_relaxed); }

// The Lemma 2.6 tree ops (pair aggregation, full and incremental, + bit
// broadcast) over a BFS tree: the innermost loop of every Theorem 1.1
// seed-fixing iteration. After one warm call per op, repeated calls must
// not touch the heap — through the transport on both executors (the wave
// kernel), on the engine at 1 and 2 threads, and through the kernel's
// own entry points.
TEST(AllocAudit, BfsTreeOpsSteadyState) {
  const Graph g = make_grid(12, 12);
  std::vector<long double> v0(static_cast<std::size_t>(g.num_nodes()), 0.25L);
  std::vector<long double> v1(static_cast<std::size_t>(g.num_nodes()), 0.5L);
  const std::vector<NodeId> changed = {3, 40, 41, 143};
  auto audit = [&](ColoringTransport& t, const std::string& where) {
    t.build_tree(0);
    // Warm: scratch buffers size themselves.
    t.aggregate_pair(v0, v1);
    t.broadcast_bit(1);
    const std::uint64_t before = allocs();
    for (int i = 0; i < 5; ++i) {
      t.aggregate_pair(v0, v1);
      t.broadcast_bit(1);
      for (const NodeId v : changed) v0[static_cast<std::size_t>(v)] += 0.125L;
      t.aggregate_pair_update(v0, v1, changed);
      t.broadcast_bit(0);
    }
    EXPECT_EQ(allocs() - before, 0u) << "tree ops allocated: " << where;
  };
  congest::Network net(g);
  NetworkColoringTransport ref(net);
  audit(ref, "Network transport");
  for (const int threads : {1, 2}) {
    EngineColoringTransport eng(g, threads);
    audit(eng, "engine transport, threads=" + std::to_string(threads));
  }

  congest::TreeData tree;
  build_tree_data(net, 0, &tree);
  congest::TreeFixedSum sum;
  sum.refresh(tree, v0);  // warm
  const std::uint64_t before = allocs();
  for (int i = 0; i < 5; ++i) {
    sum.refresh(tree, v0);
    for (const NodeId v : changed) v0[static_cast<std::size_t>(v)] += 0.125L;
    sum.update(tree, v0, changed);
    net.charge(congest::wave_cost(tree, 128, net.bandwidth_bits()));
    net.charge(congest::wave_cost(tree, 13, net.bandwidth_bits()));
  }
  EXPECT_EQ(allocs() - before, 0u) << "wave kernel allocated";
}

// The one-round conflict-edge exchanges of every Lemma 2.1 phase: the
// transport reserves the sender roster once, so on a warm transport
// repeated exchanges — with and without a `from` sink — allocate nothing
// but what the caller's `from` lists need, and those are warm too. The
// graph is wide enough that the 2-thread delivery phase wakes the pool.
TEST(AllocAudit, ExchangeAlongSteadyState) {
  const Graph g = make_grid(48, 48);
  const auto n = static_cast<std::size_t>(g.num_nodes());
  ASSERT_GT(n, ParallelEngine::kSerialPhaseCutoff);
  std::vector<std::vector<NodeId>> targets(n);
  std::vector<char> senders(n, 0);
  std::vector<std::uint64_t> payloads(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    targets[static_cast<std::size_t>(v)].assign(nb.begin(), nb.end());
    senders[static_cast<std::size_t>(v)] = v % 3 == 0;
    payloads[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(v) * 2654435761u;
  }
  for (const int threads : {1, 2}) {
    EngineColoringTransport t(g, threads);
    std::vector<std::vector<NodeId>> from(n);
    t.exchange_along(targets, senders, payloads, 64, &from);  // warm
    t.exchange_along(targets, senders, payloads, 64, nullptr);
    const std::uint64_t before = allocs();
    for (int i = 0; i < 5; ++i) {
      t.exchange_along(targets, senders, payloads, 64, &from);
      t.exchange_along(targets, senders, payloads, 64, nullptr);
    }
    EXPECT_EQ(allocs() - before, 0u) << "exchange allocated at threads=" << threads;
    ASSERT_EQ(from[1].size(), 1u) << threads;  // node 1 hears sender 0 only
    EXPECT_EQ(from[1][0], 0) << threads;
  }
}

// A full Linial run on an engine that has already executed one: the
// program object is built outside the audited region (its schedule and
// coloring buffers are setup, not round-loop work), then run() itself
// must stay off the heap.
TEST(AllocAudit, LinialRunSteadyState) {
  const Graph g = make_gnp(400, 0.03, test::kTestSeed + 1);
  const InducedSubgraph active = test::all_active(g);
  for (const int threads : {1, 2}) {
    ParallelEngine eng(g, threads);
    LinialProgram warm(active, std::vector<std::int64_t>{}, 0);
    eng.run(warm);

    LinialProgram prog(active, std::vector<std::int64_t>{}, 0);
    const std::uint64_t before = allocs();
    eng.run(prog);
    const std::uint64_t delta = allocs() - before;
    EXPECT_EQ(delta, 0u) << "Linial run allocated at threads=" << threads;
  }
}

// A full color-class MIS run (the conflict-resolution step of
// Theorem 1.1): the rostered program precomputes its class CSR and
// reserves its roster scratch in the constructor, so the whole
// num_colors-round run — roster construction included — is heap-free.
TEST(AllocAudit, MisRunSteadyState) {
  const Graph g = make_grid(10, 18);
  const InducedSubgraph active = test::all_active(g);
  for (const int threads : {1, 2}) {
    ParallelEngine eng(g, threads);
    LinialResult lin = linial_coloring(eng, active);
    ASSERT_GT(lin.num_colors, 0);
    MisColorClassesProgram prog(active, lin.coloring, lin.num_colors);
    const std::uint64_t before = allocs();
    eng.run(prog);
    const std::uint64_t delta = allocs() - before;
    EXPECT_EQ(delta, 0u) << "MIS run allocated at threads=" << threads;
  }
}

// One transport rebinding its tree across every cluster of a real
// network decomposition, running the seed-fixing ops each time: a full
// aggregation, then incremental ones over a few of the cluster's nodes.
// After one warm pass over all clusters (TreeData, encoded-sum and
// scratch capacities reach their high-water marks), further passes —
// rebinds included — must not allocate.
TEST(AllocAudit, ClusterRebindSteadyState) {
  const Graph g = make_clustered(6, 12, 0.5, 0.02, test::kTestSeed + 2);
  const NetworkDecomposition d = decompose(g);
  ASSERT_GT(d.clusters.size(), 1u);
  std::vector<long double> v0(static_cast<std::size_t>(g.num_nodes()), 0.125L);
  std::vector<long double> v1(static_cast<std::size_t>(g.num_nodes()), 0.375L);
  EngineColoringTransport t(g, 1);
  auto pass = [&] {
    for (const Cluster& c : d.clusters) {
      t.bind_cluster(c);
      t.aggregate_pair(v0, v1);
      t.broadcast_bit(1);
      const std::span<const NodeId> changed(c.members.data(),
                                            std::min<std::size_t>(3, c.members.size()));
      for (int i = 0; i < 3; ++i) {
        for (const NodeId v : changed) v1[static_cast<std::size_t>(v)] += 0.25L;
        t.aggregate_pair_update(v0, v1, changed);
        t.broadcast_bit(0);
      }
    }
  };
  pass();  // warm

  const std::uint64_t before = allocs();
  pass();
  const std::uint64_t delta = allocs() - before;
  EXPECT_EQ(delta, 0u) << "cluster rebind loop allocated";
}

// Calls and bytes allocated by one run of a fixed 24-node cluster
// through corollary12_run's per-cluster entry point (color_cluster, dispatched
// by the engine backend's run_cluster_class), inside an 8-column grid of
// `rows` rows. The cluster is grid rows 40..42, its tree runs along row
// 40 and down the columns, and two Steiner leaves hang below it in row
// 43. Lists, input colors and bandwidth are the same for every `rows`
// (the members are interior), so only the graph around the cluster
// grows. The audited run follows a warm one, which sizes thread-local
// scratch.
struct Usage {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

Usage cluster_run_usage(NodeId rows) {
  constexpr NodeId kCols = 8;
  constexpr NodeId kRow0 = 40;
  const Graph g = make_grid(rows, kCols);
  auto id = [](NodeId r, NodeId c) { return r * kCols + c; };
  Cluster c;
  c.root = id(kRow0, 0);
  for (NodeId r = kRow0; r < kRow0 + 3; ++r) {
    for (NodeId col = 0; col < kCols; ++col) {
      c.members.push_back(id(r, col));
      c.tree_nodes.push_back(id(r, col));
      c.tree_parent.push_back(r > kRow0 ? id(r - 1, col) : col > 0 ? id(r, col - 1) : -1);
    }
  }
  for (NodeId col = 0; col < 2; ++col) {
    c.tree_nodes.push_back(id(kRow0 + 3, col));
    c.tree_parent.push_back(id(kRow0 + 2, col));
  }
  c.tree_depth = kCols - 1 + 2;

  const ListInstance inst = ListInstance::delta_plus_one(g);
  LinialResult lin;  // a proper 4-coloring, the same on every cluster
  lin.coloring.resize(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    lin.coloring[static_cast<std::size_t>(v)] = ((v / kCols - kRow0) & 1) * 2 + (v % kCols & 1);
  }
  lin.num_colors = 4;
  const PartialColoringOptions opts;
  std::vector<Color> colors(static_cast<std::size_t>(g.num_nodes()), kUncolored);
  EngineCorollary12Transports transports(g, 1, /*bandwidth_bits=*/40);
  const std::vector<const Cluster*> batch{&c};
  std::vector<congest::Metrics> metrics;
  const Corollary12Transports::ClusterWork work = [&](const Cluster& cl, ColoringTransport& ct) {
    color_cluster(cl, ct, inst, lin, opts, colors);
  };
  transports.run_cluster_class(batch, work, &metrics);  // warm

  const std::uint64_t calls0 = allocs();
  const std::uint64_t bytes0 = g_new_bytes.load(std::memory_order_relaxed);
  transports.run_cluster_class(batch, work, &metrics);
  const Usage used{allocs() - calls0, g_new_bytes.load(std::memory_order_relaxed) - bytes0};

  for (const NodeId v : c.members) {
    EXPECT_NE(colors[static_cast<std::size_t>(v)], kUncolored) << "rows=" << rows;
    for (const NodeId u : g.neighbors(v)) {
      if (std::find(c.members.begin(), c.members.end(), u) != c.members.end()) {
        EXPECT_NE(colors[static_cast<std::size_t>(v)], colors[static_cast<std::size_t>(u)]);
      }
    }
  }
  EXPECT_GT(metrics[0].rounds, 0) << "rows=" << rows;
  return used;
}

// A cluster's run is cluster-sized: the same 24-node cluster allocates
// the same number of times and the same number of bytes in a graph of
// 1,000 nodes and in one of 100,000.
TEST(AllocAudit, ClusterRunIsClusterSized) {
  const Usage small = cluster_run_usage(125);
  const Usage large = cluster_run_usage(12500);
  EXPECT_GT(small.calls, 0u);
  EXPECT_EQ(large.calls, small.calls) << "allocation count grows with n";
  EXPECT_EQ(large.bytes, small.bytes) << "allocated bytes grow with n";
}

// The Lemma 2.6 seed-fixing math of one Lemma 2.1 phase: the caller's
// per-bit cycle of dependent_edges + edge_diagonals + fix_next_bit on the
// fast engine. The first chunk sizes every per-phase buffer (every edge
// is listed at its first bit), so all later bits of the phase must be
// heap-free, on both numerator types (b = 12 and b = 40).
TEST(AllocAudit, SeedFixingEngineSteadyState) {
  const Graph g = make_grid(12, 12);
  const NodeId n = g.num_nodes();
  std::vector<ConflictEdge> edges;
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : g.neighbors(v)) {
      if (v < u) edges.push_back(ConflictEdge{v, u});
    }
  }
  // Input colors: a proper 4-coloring of the grid (K = 4, w = 2).
  const std::uint64_t K = 4;
  for (const int b : {12, 40}) {
    const std::uint64_t full = std::uint64_t{1} << b;
    std::vector<CoinSpec> specs(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t row = static_cast<std::uint64_t>(v / 12);
      const std::uint64_t col = static_cast<std::uint64_t>(v % 12);
      specs[v].input_color = (row % 2) * 2 + col % 2;
      // Mostly free thresholds, a few forced ones.
      specs[v].threshold = v % 17 == 0 ? 0 : v % 19 == 0 ? full : (full / 163) * (v + 1);
    }
    auto engine = make_fast_bitwise_pair_prob(K, b);
    engine->begin_phase(specs, edges);
    // The numerators at the width color_one_eighth would pick: 64 bits
    // at b = 12, 128 at b = 40.
    std::vector<std::array<std::uint64_t, 4>> narrow(edges.size());
    std::vector<std::array<unsigned __int128, 4>> wide(edges.size());
    auto step = [&](int j) {
      if (b <= 31) {
        engine->edge_diagonals(engine->dependent_edges(), narrow.data());
      } else {
        engine->edge_diagonals(engine->dependent_edges(), wide.data());
      }
      engine->fix_next_bit((j * 7 + 3) % 5 < 2 ? 1 : 0);
    };
    const int d = engine->num_seed_bits();
    const int first_chunk = d / b;
    int j = 0;
    for (; j < first_chunk; ++j) step(j);  // warm
    const std::uint64_t before = allocs();
    for (; j < d; ++j) step(j);
    EXPECT_EQ(allocs() - before, 0u) << "seed-fixing engine allocated at b=" << b;
  }
}

}  // namespace
}  // namespace dcolor::runtime
