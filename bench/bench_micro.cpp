// E14 — google-benchmark microbenchmarks: hash families, conditional
// probability engines, GF(2^m) arithmetic, graph generation, simulator
// throughput. These quantify the per-query costs that make the fast
// bitwise engine the default (src/coloring/pair_prob.h).
#include <benchmark/benchmark.h>

#include "src/coloring/pair_prob.h"
#include "src/congest/network.h"
#include "src/gf2/gf2m.h"
#include "src/graph/generators.h"
#include "src/hash/bitwise_family.h"
#include "src/hash/gf_family.h"

namespace dcolor {
namespace {

void BM_GF2mMul(benchmark::State& state) {
  GF2m f(static_cast<int>(state.range(0)));
  std::uint64_t a = 0x9E37 % f.order(), b = 0x1234 % f.order();
  for (auto _ : state) {
    a = f.mul(a, b) | 1;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GF2mMul)->Arg(8)->Arg(16)->Arg(32);

void BM_CoinEval(benchmark::State& state) {
  const bool gf = state.range(0) == 0;
  auto fam = gf ? make_gf_coin_family(1 << 12, 13) : make_bitwise_coin_family(1 << 12, 13);
  std::vector<std::uint8_t> seed(fam->seed_length());
  for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = static_cast<std::uint8_t>(i & 1);
  CoinSpec spec{123, 4000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam->coin(spec, seed));
  }
  state.SetLabel(fam->description());
}
BENCHMARK(BM_CoinEval)->Arg(0)->Arg(1);

void BM_PairDistConditional(benchmark::State& state) {
  const bool gf = state.range(0) == 0;
  auto fam = gf ? make_gf_coin_family(1 << 10, 10) : make_bitwise_coin_family(1 << 10, 10);
  std::vector<std::uint8_t> fixed(static_cast<std::size_t>(fam->seed_length() / 2), 1);
  CoinSpec u{3, 400}, v{700, 800};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fam->pair_dist(u, v, fixed));
  }
  state.SetLabel(fam->description());
}
BENCHMARK(BM_PairDistConditional)->Arg(0)->Arg(1);

void BM_FastEngineSeedBit(benchmark::State& state) {
  // Cost of one (edge, seed-bit, candidate) query in the incremental
  // engine — the inner loop of every CONGEST derandomization round.
  const std::uint64_t K = 1 << 10;
  const int b = 12;
  auto eng = make_fast_bitwise_pair_prob(K, b);
  const int n = 64;
  std::vector<CoinSpec> specs(n);
  std::vector<ConflictEdge> edges;
  for (int i = 0; i < n; ++i) specs[i] = CoinSpec{static_cast<std::uint64_t>(i), 1u << 11};
  for (int i = 0; i + 1 < n; ++i) edges.push_back(ConflictEdge{i, i + 1});
  eng->begin_phase(specs, edges);
  int e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng->edge_joint(e, 0));
    e = (e + 1) % static_cast<int>(edges.size());
  }
}
BENCHMARK(BM_FastEngineSeedBit);

void BM_CongestRound(benchmark::State& state) {
  auto g = make_near_regular(static_cast<NodeId>(state.range(0)), 8, 4);
  congest::Network net(g);
  for (auto _ : state) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) net.send_all(v, 1, 1);
    net.advance_round();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 2);
}
BENCHMARK(BM_CongestRound)->Arg(256)->Arg(1024);

void BM_GraphGen(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_gnp(static_cast<NodeId>(state.range(0)), 0.02, 7));
  }
}
BENCHMARK(BM_GraphGen)->Arg(256)->Arg(1024);

}  // namespace
}  // namespace dcolor

BENCHMARK_MAIN();
