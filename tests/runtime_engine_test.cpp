// The two executors of a NodeProgram, tested head-on:
//  1. CONGEST-contract parity — the engine and the Network runner
//     (runtime::run over congest::Network) reject exactly the cheats
//     congest::Network rejects (the violation corpus from
//     tests/congest_test.cpp, replayed as NodePrograms), with the same
//     CongestViolation, and charge the same Metrics for the legal
//     counterparts.
//  2. Execution parity — Linial, the derandomized MIS and Theorem 1.1
//     produce bit-identical colorings/MIS sets AND bit-identical Metrics
//     (rounds, messages, total_bits, max_message_bits) on the engine at
//     1 and N threads and on the Network runner.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/coloring/derand_mis.h"
#include "src/coloring/linial.h"
#include "src/coloring/theorem11.h"
#include "src/congest/network.h"
#include "src/graph/generators.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/linial_program.h"
#include "src/runtime/mis_program.h"
#include "src/runtime/parallel_engine.h"
#include "src/runtime/theorem11_program.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

using congest::CongestViolation;
using runtime::Inbox;
using runtime::Outbox;
using runtime::ParallelEngine;

// Minimal scriptable program: run `rounds` rounds, with arbitrary send
// behavior in init and an optional per-round hook.
struct ScriptProgram final : runtime::NodeProgram {
  std::function<void(NodeId, Outbox&)> on_init;
  std::function<void(std::int64_t, NodeId, const Inbox&, Outbox&)> on_round_fn;
  std::int64_t rounds_wanted = 1;

  void init(NodeId v, Outbox& out) override {
    if (on_init) on_init(v, out);
  }
  void on_round(std::int64_t r, NodeId v, const Inbox& in, Outbox& out) override {
    if (on_round_fn) on_round_fn(r, v, in, out);
  }
  bool done(std::int64_t rounds) override { return rounds >= rounds_wanted; }
};

TEST(ParallelEngine, DeliversToTheRightSlots) {
  auto g = make_path(3);  // 0-1-2
  ParallelEngine eng(g, 2);
  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> got(3);
  ScriptProgram p;
  p.on_init = [](NodeId v, Outbox& out) {
    if (v == 0) out.send(1, 42, 6);
    if (v == 2) out.send(1, 7, 3);
  };
  p.on_round_fn = [&](std::int64_t, NodeId v, const Inbox& in, Outbox&) {
    in.for_each([&](NodeId from, std::uint64_t payload) { got[v].emplace_back(from, payload); });
  };
  eng.run(p);
  EXPECT_TRUE(got[0].empty());
  EXPECT_TRUE(got[2].empty());
  ASSERT_EQ(got[1].size(), 2u);
  // CSR order: slot 0 is neighbor 0, slot 1 is neighbor 2.
  EXPECT_EQ(got[1][0], (std::pair<NodeId, std::uint64_t>{0, 42}));
  EXPECT_EQ(got[1][1], (std::pair<NodeId, std::uint64_t>{2, 7}));
  EXPECT_EQ(eng.metrics().rounds, 1);
  EXPECT_EQ(eng.metrics().messages, 2);
  EXPECT_EQ(eng.metrics().total_bits, 9);
  EXPECT_EQ(eng.metrics().max_message_bits, 6);
}

TEST(ParallelEngine, StaleSlotsDoNotLeakAcrossRounds) {
  auto g = make_path(2);
  ParallelEngine eng(g, 2);
  std::vector<int> inbox_sizes;
  ScriptProgram p;
  p.rounds_wanted = 3;
  p.on_init = [](NodeId v, Outbox& out) {
    if (v == 0) out.send(1, 1, 1);  // only round 1 carries a message
  };
  p.on_round_fn = [&](std::int64_t, NodeId v, const Inbox& in, Outbox&) {
    if (v == 1) inbox_sizes.push_back(in.empty() ? 0 : 1);
  };
  eng.run(p);
  EXPECT_EQ(inbox_sizes, (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(eng.metrics().rounds, 3);
}

// ---- violation corpus, both executors (mirrors tests/congest_test.cpp) ----

// The CongestViolation message `run_it` throws, or "" if it returns.
std::string violation_of(const std::function<void()>& run_it) {
  try {
    run_it();
  } catch (const CongestViolation& e) {
    return e.what();
  }
  return "";
}

void expect_violation(const Graph& g, int bandwidth, int threads,
                      std::function<void(NodeId, Outbox&)> init_fn) {
  ParallelEngine eng(g, threads, bandwidth);
  congest::Network net(g, bandwidth);
  ScriptProgram p;
  p.on_init = std::move(init_fn);
  const std::string on_engine = violation_of([&] { eng.run(p); });
  EXPECT_FALSE(on_engine.empty()) << "threads=" << threads;
  EXPECT_EQ(violation_of([&] { runtime::run(net, p); }), on_engine);
}

TEST(ParallelEngineViolations, MatchesNetworkCorpus) {
  auto path3 = make_path(3);
  for (int threads : {1, 3}) {
    // Non-edge.
    expect_violation(path3, 0, threads, [](NodeId v, Outbox& out) {
      if (v == 0) out.send(2, 1, 1);
    });
    // Self-loop.
    expect_violation(path3, 0, threads, [](NodeId v, Outbox& out) {
      if (v == 1) out.send(1, 0, 1);
    });
    // Oversized message.
    expect_violation(path3, 8, threads, [](NodeId v, Outbox& out) {
      if (v == 0) out.send(1, 0, 9);
    });
    // Undersized declaration (255 needs 8 bits).
    expect_violation(path3, 0, threads, [](NodeId v, Outbox& out) {
      if (v == 0) out.send(1, 255, 4);
    });
    // Double send over one edge in one round.
    expect_violation(path3, 0, threads, [](NodeId v, Outbox& out) {
      if (v == 0) {
        out.send(1, 1, 1);
        out.send(1, 2, 2);
      }
    });
    // Double send via send_all on a star center.
    auto star = make_star(4);
    expect_violation(star, 0, threads, [](NodeId v, Outbox& out) {
      if (v == 0) {
        out.send_all(1, 1);
        out.send(1, 1, 1);
      }
    });
  }
}

void expect_metrics_eq(const congest::Metrics& a, const congest::Metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
}

TEST(ParallelEngineViolations, LegalCorpusCounterpartsPass) {
  // The allowed halves of the corpus cases must not throw, and both
  // executors charge them alike.
  auto path3 = make_path(3);
  ParallelEngine eng(path3, 2, 8);
  congest::Network net(path3, 8);
  ScriptProgram p;
  p.on_init = [](NodeId v, Outbox& out) {
    if (v == 0) out.send(1, 255, 8);  // exactly at the budget
    if (v == 1) out.send(0, 3, 2);    // opposite direction of an edge
  };
  EXPECT_NO_THROW(eng.run(p));
  EXPECT_EQ(eng.metrics().messages, 2);
  EXPECT_EQ(eng.metrics().max_message_bits, 8);
  EXPECT_NO_THROW(runtime::run(net, p));
  expect_metrics_eq(net.metrics(), eng.metrics());

  // The same edge is free again the next round.
  ParallelEngine eng2(path3, 2);
  congest::Network net2(path3);
  ScriptProgram p2;
  p2.rounds_wanted = 2;
  p2.on_init = [](NodeId v, Outbox& out) {
    if (v == 0) out.send(1, 1, 1);
  };
  p2.on_round_fn = [](std::int64_t r, NodeId v, const Inbox&, Outbox& out) {
    if (r == 1 && v == 0) out.send(1, 1, 1);
  };
  EXPECT_NO_THROW(eng2.run(p2));
  EXPECT_EQ(eng2.metrics().messages, 2);
  EXPECT_NO_THROW(runtime::run(net2, p2));
  expect_metrics_eq(net2.metrics(), eng2.metrics());
}

TEST(ParallelEngine, FinalPhaseSendsAreRejectedAndDoNotPoisonReuse) {
  auto g = make_path(2);
  ParallelEngine eng(g, 2);
  // Program bug: stages a send in the phase after which done() fires —
  // there is no delivery round for it.
  ScriptProgram bad;
  bad.rounds_wanted = 1;
  bad.on_round_fn = [](std::int64_t, NodeId v, const Inbox&, Outbox& out) {
    if (v == 0) out.send(1, 1, 1);
  };
  EXPECT_THROW(eng.run(bad), std::logic_error);
  // The same engine must stay usable: the dropped send's stamp must not
  // masquerade as a duplicate send over that edge in the next run.
  ScriptProgram good;
  good.on_init = [](NodeId v, Outbox& out) {
    if (v == 0) out.send(1, 1, 1);
  };
  int delivered = 0;
  good.on_round_fn = [&](std::int64_t, NodeId v, const Inbox& in, Outbox&) {
    if (v == 1 && !in.empty()) ++delivered;
  };
  EXPECT_NO_THROW(eng.run(good));
  EXPECT_EQ(delivered, 1);
}

// ---- the Network runner ----

TEST(NetworkRunner, DeliversToTheRightSlots) {
  auto g = make_path(3);  // 0-1-2
  congest::Network net(g);
  std::vector<std::vector<std::pair<NodeId, std::uint64_t>>> got(3);
  ScriptProgram p;
  p.rounds_wanted = 2;
  p.on_init = [](NodeId v, Outbox& out) {
    if (v == 2) out.send(1, 7, 3);
    if (v == 0) out.send_nth(0, 1, 1);
  };
  p.on_round_fn = [&](std::int64_t r, NodeId v, const Inbox& in, Outbox&) {
    in.for_each([&](NodeId from, std::uint64_t payload) { got[v].emplace_back(from, payload); });
    if (r == 2) {
      EXPECT_TRUE(in.empty()) << "round 1's messages leaked into round 2";
    }
  };
  EXPECT_EQ(runtime::run(net, p), 2);
  ASSERT_EQ(got[1].size(), 2u);
  // CSR order: slot 0 is neighbor 0, slot 1 is 2.
  EXPECT_EQ(got[1][0], (std::pair<NodeId, std::uint64_t>{0, 1}));
  EXPECT_EQ(got[1][1], (std::pair<NodeId, std::uint64_t>{2, 7}));
  EXPECT_TRUE(got[0].empty());
  EXPECT_EQ(net.metrics().rounds, 2);
  EXPECT_EQ(net.metrics().total_bits, 4);
}

TEST(NetworkRunner, FinalPhaseSendsAreRejected) {
  auto g = make_path(2);
  ScriptProgram bad;
  bad.rounds_wanted = 1;
  bad.on_round_fn = [](std::int64_t, NodeId v, const Inbox&, Outbox& out) {
    if (v == 0) out.send(1, 1, 1);
  };
  congest::Network net(g);
  EXPECT_THROW(runtime::run(net, bad), std::logic_error);
  // A send staged in init of a program that is done at once has no
  // delivery round either.
  ScriptProgram bad_init;
  bad_init.rounds_wanted = 0;
  bad_init.on_init = [](NodeId v, Outbox& out) {
    if (v == 1) out.send(0, 1, 1);
  };
  congest::Network net2(g);
  EXPECT_THROW(runtime::run(net2, bad_init), std::logic_error);
  ParallelEngine eng(g, 2);
  EXPECT_THROW(eng.run(bad_init), std::logic_error);
}

// The engine trusts roster(); the Network runner ignores it. A program
// whose roster leaves out a sending node therefore gives different
// results on the two executors, which is what lets the parity suites
// catch a broken roster.
TEST(NetworkRunner, BrokenRosterShowsAsDivergence) {
  struct LeavesOutASender final : runtime::NodeProgram {
    std::vector<std::uint64_t> heard = std::vector<std::uint64_t>(3, 0);
    const NodeId only_zero = 0;
    void init(NodeId v, Outbox& out) override {
      if (v != 1) out.send(1, static_cast<std::uint64_t>(v) + 1, 2);
    }
    void on_round(std::int64_t, NodeId v, const Inbox& in, Outbox&) override {
      in.for_each([&](NodeId, std::uint64_t payload) { heard[v] += payload; });
    }
    bool done(std::int64_t rounds) override { return rounds == 1; }
    runtime::Roster roster(std::int64_t round) override {
      // Broken: node 2 also sends in init.
      return round == 0 ? runtime::Roster::of(&only_zero, 1) : runtime::Roster::all();
    }
  };
  auto g = make_path(3);
  LeavesOutASender on_engine, on_network;
  ParallelEngine eng(g, 1);
  congest::Network net(g);
  eng.run(on_engine);
  runtime::run(net, on_network);
  EXPECT_EQ(on_engine.heard[1], 1u);
  EXPECT_EQ(on_network.heard[1], 4u);
  EXPECT_NE(eng.metrics().messages, net.metrics().messages);
}

// ---- Linial parity ----

TEST(EngineParity, LinialMatchesNetworkOnCorpus) {
  for (const auto& [name, g] : test::small_corpus()) {
    const InducedSubgraph all = test::all_active(g);
    congest::Network net(g);
    const LinialResult ref = runtime::linial_coloring(net, all);
    for (int threads : {1, 2, 4}) {
      ParallelEngine eng(g, threads);
      const LinialResult got = runtime::linial_coloring(eng, all);
      EXPECT_EQ(got.coloring, ref.coloring) << name << " threads=" << threads;
      EXPECT_EQ(got.num_colors, ref.num_colors) << name;
      EXPECT_EQ(got.iterations, ref.iterations) << name;
      expect_metrics_eq(eng.metrics(), net.metrics());
      EXPECT_TRUE(test::proper_on_active(all, got.coloring)) << name;
    }
  }
}

TEST(EngineParity, LinialMatchesOnActiveSubgraph) {
  auto g = make_grid(8, 8);
  std::vector<bool> member(g.num_nodes(), false);
  for (NodeId v = 0; v < g.num_nodes(); v += 2) member[v] = true;  // sparse active set
  const InducedSubgraph active(g, member);
  congest::Network net(g);
  const LinialResult ref = runtime::linial_coloring(net, active);
  ParallelEngine eng(g, 3);
  const LinialResult got = runtime::linial_coloring(eng, active);
  EXPECT_EQ(got.coloring, ref.coloring);
  expect_metrics_eq(eng.metrics(), net.metrics());
}

// ---- derandomized MIS parity ----

TEST(EngineParity, DerandMisMatchesNetwork) {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("cycle24", make_cycle(24));
  graphs.emplace_back("grid5x5", make_grid(5, 5));
  graphs.emplace_back("gnp48", make_gnp(48, 0.12, 9));
  graphs.emplace_back("star16", make_star(16));
  graphs.emplace_back("near_regular", make_near_regular(40, 5, 5));
  // Disconnected: exercises the per-component driver on both sides.
  {
    std::vector<std::pair<NodeId, NodeId>> e;
    for (NodeId i = 0; i < 10; ++i) e.emplace_back(i, (i + 1) % 10);           // cycle
    for (NodeId i = 10; i + 1 < 18; ++i) e.emplace_back(i, i + 1);             // path
    graphs.emplace_back("disconnected", Graph::from_edges(20, std::move(e)));  // + isolated
  }

  for (const auto& [name, g] : graphs) {
    const DerandMisResult ref = derandomized_mis(g);
    for (int threads : {1, 4}) {
      const DerandMisResult got = runtime::derandomized_mis(g, threads);
      EXPECT_EQ(got.in_mis, ref.in_mis) << name << " threads=" << threads;
      EXPECT_EQ(got.iterations, ref.iterations) << name;
      expect_metrics_eq(got.metrics, ref.metrics);
      EXPECT_TRUE(test::valid_mis(test::all_active(g), got.in_mis)) << name;
    }
  }
}

TEST(EngineParity, ThreadCountCannotPerturbResults) {
  auto g = make_powerlaw(600, 2.5, 11);  // skewed degrees stress the chunking
  const InducedSubgraph all = test::all_active(g);
  ParallelEngine eng1(g, 1);
  const LinialResult ref = runtime::linial_coloring(eng1, all);
  for (int threads : {2, 3, 8}) {
    ParallelEngine eng(g, threads);
    const LinialResult got = runtime::linial_coloring(eng, all);
    EXPECT_EQ(got.coloring, ref.coloring) << threads;
    expect_metrics_eq(eng.metrics(), eng1.metrics());
  }
}

// Phases wider than kSerialPhaseCutoff go through the pool; narrower
// ones run the same chunks inline. On a 70x70 grid every Linial phase and
// both checkerboard-MIS phases (2450 nodes each) are wider than the
// cutoff, so at 3 threads they run on the pool and must match the
// single-thread run bit for bit.
TEST(EngineParity, PoolPathMatchesSerialPath) {
  auto g = make_grid(70, 70);
  const InducedSubgraph all = test::all_active(g);
  std::vector<std::int64_t> checkerboard(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) checkerboard[v] = (v / 70 + v % 70) % 2;
  ASSERT_GT(static_cast<std::size_t>(g.num_nodes()) / 2, ParallelEngine::kSerialPhaseCutoff);

  ParallelEngine serial(g, 1);
  const LinialResult ref_linial = runtime::linial_coloring(serial, all);
  const congest::Metrics ref_linial_metrics = serial.metrics();
  serial.reset_metrics();
  const std::vector<bool> ref_mis = runtime::mis_by_color_classes(serial, all, checkerboard, 2);
  EXPECT_TRUE(test::valid_mis(all, ref_mis));

  ParallelEngine pool(g, 3);
  const LinialResult got_linial = runtime::linial_coloring(pool, all);
  EXPECT_EQ(got_linial.coloring, ref_linial.coloring);
  EXPECT_EQ(got_linial.num_colors, ref_linial.num_colors);
  EXPECT_EQ(got_linial.iterations, ref_linial.iterations);
  expect_metrics_eq(pool.metrics(), ref_linial_metrics);
  pool.reset_metrics();
  EXPECT_EQ(runtime::mis_by_color_classes(pool, all, checkerboard, 2), ref_mis);
  expect_metrics_eq(pool.metrics(), serial.metrics());
}

TEST(ParallelEngine, TinyGraphs) {
  // Single node and empty graph must run (zero rounds of Linial).
  Graph one = Graph::from_edges(1, {});
  ParallelEngine eng(one, 4);
  const LinialResult r1 = runtime::linial_coloring(eng, test::all_active(one));
  EXPECT_EQ(r1.num_colors, 1);
  EXPECT_EQ(eng.metrics().rounds, 0);

  Graph empty = Graph::from_edges(0, {});
  ParallelEngine eng0(empty, 2);
  const LinialResult r0 = runtime::linial_coloring(eng0, test::all_active(empty));
  EXPECT_TRUE(r0.coloring.empty());

  const DerandMisResult mis1 = runtime::derandomized_mis(one, 2);
  EXPECT_TRUE(mis1.in_mis[0]);
}

// ---- ThreadPool task dispatch ----

TEST(ThreadPool, RejectsNonPositiveThreadCounts) {
  EXPECT_THROW(runtime::ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(runtime::ThreadPool(-3), std::invalid_argument);
}

TEST(ThreadPool, RunTasksInvokesEveryIndexExactlyOnce) {
  for (int threads : {1, 3, 4}) {
    runtime::ThreadPool pool(threads);
    constexpr std::size_t kCount = 97;  // not a multiple of any thread count
    std::vector<std::atomic<int>> hits(kCount);
    pool.run_tasks(kCount, [&](std::size_t i, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, threads);
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " at t=" << threads;
    }
    pool.run_tasks(0, [&](std::size_t, int) { FAIL() << "zero tasks must dispatch nothing"; });
  }
}

TEST(ThreadPool, RunTasksMoreThreadsThanTasks) {
  runtime::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run_tasks(3, [&](std::size_t i, int) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, RunTasksRethrowsSmallestFailingIndex) {
  // Failures at indices 3 and 7: whichever worker hits them, the pool
  // must deterministically rethrow index 3's exception after the barrier
  // while still running every other task.
  for (int threads : {1, 4}) {
    runtime::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(12);
    try {
      pool.run_tasks(12, [&](std::size_t i, int) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 3 || i == 7) throw std::runtime_error("task " + std::to_string(i));
      });
      FAIL() << "expected rethrow at t=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << "t=" << threads;
    }
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " at t=" << threads;
    }
    // The pool survives a throwing batch and stays usable.
    std::atomic<int> after{0};
    pool.run_tasks(5, [&](std::size_t, int) { after.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(after.load(), 5) << "t=" << threads;
  }
}

// ---- Theorem 1.1 parity ----

void expect_stats_eq(const std::vector<PartialColoringStats>& a,
                     const std::vector<PartialColoringStats>& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].phases, b[i].phases) << where << " iter " << i;
    EXPECT_EQ(a[i].seed_bits, b[i].seed_bits) << where << " iter " << i;
    EXPECT_EQ(a[i].precision_bits, b[i].precision_bits) << where << " iter " << i;
    EXPECT_EQ(a[i].active_before, b[i].active_before) << where << " iter " << i;
    EXPECT_EQ(a[i].newly_colored, b[i].newly_colored) << where << " iter " << i;
    ASSERT_EQ(a[i].potential_after_phase.size(), b[i].potential_after_phase.size()) << where;
    for (std::size_t l = 0; l < a[i].potential_after_phase.size(); ++l) {
      EXPECT_TRUE(a[i].potential_after_phase[l] == b[i].potential_after_phase[l])
          << where << " iter " << i << " phase " << l;
    }
  }
}

TEST(EngineParity, Theorem11MatchesNetworkOnCorpus) {
  for (const auto& [name, g] : test::small_corpus()) {
    auto inst = ListInstance::random_lists(g, 3 * (g.max_degree() + 1), test::kTestSeed + 5);
    const ListInstance pristine = inst;
    const Theorem11Result ref = theorem11_solve_per_component(g, inst);
    for (int threads : {1, 4}) {
      const Theorem11Result got = runtime::theorem11_coloring(g, inst, threads);
      EXPECT_EQ(got.colors, ref.colors) << name << " threads=" << threads;
      EXPECT_EQ(got.iterations, ref.iterations) << name;
      EXPECT_EQ(got.input_colors, ref.input_colors) << name;
      expect_metrics_eq(got.metrics, ref.metrics);
      expect_stats_eq(got.per_iteration, ref.per_iteration, name);
      EXPECT_TRUE(pristine.valid_solution(got.colors)) << name;
    }
  }
}

TEST(EngineParity, Theorem11MatchesAcrossVariants) {
  // The Section-4 avoid-MIS variant, the GF coin family, and a narrow
  // bandwidth all reroute different transport paths (id-comparison
  // round, generic pair-prob engine, chunked exchanges); parity must
  // hold on each.
  auto g = make_gnp(40, 0.14, test::kTestSeed + 9);
  struct Case {
    const char* name;
    PartialColoringOptions opts;
  };
  std::vector<Case> cases(3);
  cases[0] = {"avoid_mis", {}};
  cases[0].opts.avoid_mis = true;
  cases[1] = {"gf_family", {}};
  cases[1].opts.family = CoinFamilyKind::kGF;
  cases[2] = {"narrow_bw", {}};
  cases[2].opts.bandwidth_bits = 12;
  for (const auto& [name, opts] : cases) {
    auto inst = ListInstance::delta_plus_one(g);
    const Theorem11Result ref = theorem11_solve_per_component(g, inst, opts);
    const Theorem11Result got = runtime::theorem11_coloring(g, inst, 3, opts);
    EXPECT_EQ(got.colors, ref.colors) << name;
    EXPECT_EQ(got.iterations, ref.iterations) << name;
    expect_metrics_eq(got.metrics, ref.metrics);
    EXPECT_TRUE(inst.valid_solution(got.colors)) << name;
  }
}

TEST(EngineParity, Theorem11ThreadCountCannotPerturbResults) {
  auto g = make_near_regular(72, 6, test::kTestSeed + 11);
  auto inst = ListInstance::delta_plus_one(g);
  const Theorem11Result ref = runtime::theorem11_coloring(g, inst, 1);
  for (int threads : {2, 3, 8}) {
    const Theorem11Result got = runtime::theorem11_coloring(g, inst, threads);
    EXPECT_EQ(got.colors, ref.colors) << threads;
    EXPECT_EQ(got.iterations, ref.iterations) << threads;
    expect_metrics_eq(got.metrics, ref.metrics);
  }
}

}  // namespace
}  // namespace dcolor
