// Parallel runtime demo: run the same deterministic algorithms through
// the sequential CONGEST simulator and the src/runtime ParallelEngine,
// and watch the results (colorings, MIS, rounds, messages) match
// bit-for-bit while the wall clock drops.
//
//   ./parallel_engine_demo [n] [threads]
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/coloring/derand_mis.h"
#include "src/coloring/linial.h"
#include "src/coloring/theorem11.h"
#include "src/congest/network.h"
#include "src/graph/generators.h"
#include "src/runtime/linial_program.h"
#include "src/runtime/mis_program.h"
#include "src/runtime/theorem11_program.h"

int main(int argc, char** argv) {
  using namespace dcolor;
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 50000;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;
  if (n < 16 || threads < 1) {
    std::fprintf(stderr, "usage: parallel_engine_demo [n >= 16] [threads >= 1]\n");
    return 2;
  }

  // Bounded-degree workload: Linial's palette actually shrinks (with
  // Delta ~ n the first reduction step is already a no-op), so both
  // executors do real per-round work.
  const Graph g = make_random_regular(n - (n % 2), 8, /*seed=*/3);
  std::printf("graph: n=%d, m=%lld, Delta=%d\n", g.num_nodes(),
              static_cast<long long>(g.num_edges()), g.max_degree());

  const InducedSubgraph all(g, std::vector<bool>(g.num_nodes(), true));
  const auto ms_since = [](auto t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  auto t0 = std::chrono::steady_clock::now();
  congest::Network net(g);
  const LinialResult ref = runtime::linial_coloring(net, all);
  const double net_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  runtime::ParallelEngine eng(g, threads);
  const LinialResult par = runtime::linial_coloring(eng, all);
  const double eng_ms = ms_since(t0);

  const bool same = par.coloring == ref.coloring &&
                    eng.metrics().rounds == net.metrics().rounds &&
                    eng.metrics().messages == net.metrics().messages;
  std::printf("linial:  %lld colors in %lld rounds / %lld messages\n",
              static_cast<long long>(ref.num_colors),
              static_cast<long long>(net.metrics().rounds),
              static_cast<long long>(net.metrics().messages));
  std::printf("  network: %8.2f ms\n  engine:  %8.2f ms (%d threads, %.2fx)  parity: %s\n",
              net_ms, eng_ms, threads, net_ms / eng_ms, same ? "bit-identical" : "DIVERGED");

  // Same story for the derandomized MIS (smaller n: the seed fixing is
  // the dominant cost, the engine parallelizes the message phases).
  const Graph g2 = make_random_regular(std::min<NodeId>(n, 400), 6, /*seed=*/1);
  const DerandMisResult mis_ref = derandomized_mis(g2);
  const DerandMisResult mis_par = runtime::derandomized_mis(g2, threads);
  std::printf("derand MIS (n=%d): %d iterations, %lld rounds, parity: %s\n", g2.num_nodes(),
              mis_ref.iterations, static_cast<long long>(mis_ref.metrics.rounds),
              mis_par.in_mis == mis_ref.in_mis &&
                      mis_par.metrics.rounds == mis_ref.metrics.rounds
                  ? "bit-identical"
                  : "DIVERGED");

  // The paper's headline pipeline — Theorem 1.1 deterministic (deg+1)-
  // list coloring — through both executors. The engine's rostered tree
  // waves carry the ~2 tree passes per seed bit, so the full pipeline
  // scales with cores while staying bit-identical.
  const NodeId n3 = std::min<NodeId>(n, 20000);
  const Graph g3 = make_near_regular(n3, 8, /*seed=*/5);
  auto inst = ListInstance::delta_plus_one(g3);

  t0 = std::chrono::steady_clock::now();
  const Theorem11Result t11_ref = theorem11_solve(g3, inst);
  const double t11_net_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  const Theorem11Result t11_par = runtime::theorem11_coloring(g3, inst, threads);
  const double t11_eng_ms = ms_since(t0);
  const bool t11_same = t11_par.colors == t11_ref.colors &&
                        t11_par.iterations == t11_ref.iterations &&
                        t11_par.metrics.rounds == t11_ref.metrics.rounds &&
                        t11_par.metrics.messages == t11_ref.metrics.messages;
  std::printf("theorem 1.1 (n=%d): %d iterations, %lld rounds / %lld messages\n",
              g3.num_nodes(), t11_ref.iterations,
              static_cast<long long>(t11_ref.metrics.rounds),
              static_cast<long long>(t11_ref.metrics.messages));
  std::printf("  network: %8.2f ms\n  engine:  %8.2f ms (%d threads, %.2fx)  parity: %s\n",
              t11_net_ms, t11_eng_ms, threads, t11_net_ms / t11_eng_ms,
              t11_same ? "bit-identical" : "DIVERGED");
  return same && t11_same ? 0 : 1;
}
