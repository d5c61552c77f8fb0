// Round-loop microbenchmark: tiny per-round work over MANY rounds, so
// the engine's fixed per-round costs (roster dispatch, inbox epoch
// checks, flag-plane delivery, barrier + metrics merge) dominate the
// clock instead of algorithmic work.
//
//   engine.roundloop.bitbroadcast — a color-class MIS from the identity
//     coloring (every class a single node): n rounds of near-empty
//     rosters whose only traffic is 1-bit flag-plane joins — the purest
//     per-round overhead probe the pipeline has.
//
// It verifies against straight sequential recomputation, so a dispatch
// or flag-plane bug fails the bench rather than shipping as a speedup.
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/scenarios/scenario_common.h"
#include "src/benchkit/scenario.h"
#include "src/benchkit/verify.h"
#include "src/coloring/mis.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor {
namespace {

using benchkit::Outcome;
using benchkit::Prepared;
using benchkit::RunConfig;
using benchkit::Scenario;

REGISTER_SCENARIO(Scenario{
    "engine.roundloop.bitbroadcast",
    "Color-class MIS from the identity coloring: n rounds of 1-bit flag-plane joins",
    "gnp", "roundloop", "engine", /*parity=*/"", /*scalable=*/true,
    [](const RunConfig& c) {
      const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 20000, 4000));
      auto g = std::make_shared<Graph>(
          make_gnp(n, 8.0 / static_cast<double>(n), c.seed));
      // Identity coloring: trivially proper, and it maximizes rounds per
      // unit of work — each of the n classes is a single node.
      auto coloring = std::make_shared<std::vector<std::int64_t>>(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) (*coloring)[v] = v;
      auto eng = std::make_shared<runtime::ParallelEngine>(*g, c.threads);
      auto active = std::make_shared<InducedSubgraph>(
          *g, std::vector<bool>(static_cast<std::size_t>(n), true));
      return Prepared{[g, eng, coloring, active, n, seed = c.seed] {
        eng->reset_metrics();
        runtime::MisColorClassesProgram prog(*active, *coloring, n);
        eng->run(prog);
        const std::vector<bool> in_mis = prog.in_mis();
        Outcome o;
        o.n = g->num_nodes();
        o.m = g->num_edges();
        o.seed = seed;
        o.metrics = eng->metrics();
        o.checksum = benchkit::checksum_bits(in_mis);
        o.verified = is_mis(*active, in_mis);
        return o;
      }};
    }});

}  // namespace
}  // namespace dcolor
