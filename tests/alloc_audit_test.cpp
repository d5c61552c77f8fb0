// Steady-state allocation audit of the engine round loop: a counting
// global operator new verifies that, once warm, the hot paths of the
// derandomization pipelines allocate NOTHING per round — the engine's
// dispatch (serial fast path and pool path), the Lemma 2.6 wave kernel's
// aggregate/broadcast ops over BFS and cluster trees (including cluster
// rebinds), a full Linial run, and a full color-class MIS run.
// Guards tentpole (c) of the round-loop optimization PR: any hot-path
// heap traffic reintroduced later fails here, not in a profiler.
//
// The counter counts every operator new/new[] in the process (gtest
// included), so each audit snapshots the counter around ONLY the
// steady-state region and asserts a zero delta.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/linial_program.h"
#include "src/runtime/parallel_engine.h"
#include "tests/test_support.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the usual global forms. Aligned-new is
// deliberately not replaced: nothing in the audited paths uses it, and
// the default aligned operators do not forward here.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dcolor::runtime {
namespace {

std::uint64_t allocs() { return g_news.load(std::memory_order_relaxed); }

// The Lemma 2.6 tree ops (pair aggregation + bit broadcast) over a
// BFS tree: the innermost loop of every Theorem 1.1 seed-fixing
// iteration. After one warm call per op, repeated calls must not touch
// the heap — through both transports (the wave kernel, with each
// transport's scratch), on the engine at 1 and 2 threads, and through the
// kernel's own entry points.
TEST(AllocAudit, BfsTreeOpsSteadyState) {
  const Graph g = make_grid(12, 12);
  std::vector<long double> v0(static_cast<std::size_t>(g.num_nodes()), 0.25L);
  std::vector<long double> v1(static_cast<std::size_t>(g.num_nodes()), 0.5L);
  auto audit = [&](ColoringTransport& t, const std::string& where) {
    t.build_tree(0);
    // Warm: scratch buffers size themselves.
    t.aggregate_pair(v0, v1);
    t.broadcast_bit(1);
    const std::uint64_t before = allocs();
    for (int i = 0; i < 5; ++i) {
      t.aggregate_pair(v0, v1);
      t.broadcast_bit(1);
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
  congest::build_tree_data(net, 0, &tree);
  std::vector<std::uint64_t> acc;
  congest::tree_fixed_sum(tree, v0, &acc);
  const std::uint64_t before = allocs();
  for (int i = 0; i < 5; ++i) {
    congest::tree_fixed_sum(tree, v0, &acc);
    net.charge(congest::wave_cost(tree, 128, net.bandwidth_bits()));
    net.charge(congest::wave_cost(tree, 13, net.bandwidth_bits()));
  }
  EXPECT_EQ(allocs() - before, 0u) << "wave kernel allocated";
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

// The Corollary 1.2 per-cluster loop: one transport rebinding its tree
// across every cluster of a real network decomposition, running the
// seed-fixing ops each time. After one warm pass over all clusters
// (TreeData and scratch capacities reach their high-water marks), further
// passes — rebinds included — must not allocate.
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
    }
  };
  pass();  // warm

  const std::uint64_t before = allocs();
  pass();
  const std::uint64_t delta = allocs() - before;
  EXPECT_EQ(delta, 0u) << "cluster rebind loop allocated";
}

}  // namespace
}  // namespace dcolor::runtime
