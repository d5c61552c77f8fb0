// Linial color reduction workloads (successor of bench_engine): the same
// G(n,p) / power-law instance solved through the sequential
// congest::Network and through the runtime::ParallelEngine, as separate
// scenarios sharing a parity key — the CLI fails if their checksums ever
// diverge, so the engine speedup can never ship with a wrong coloring.
#include <memory>
#include <vector>

#include "src/benchkit/scenario.h"
#include "src/benchkit/verify.h"
#include "src/coloring/linial.h"
#include "src/congest/network.h"
#include "src/graph/generators.h"
#include "src/runtime/linial_program.h"

namespace dcolor {
namespace {

using benchkit::Outcome;
using benchkit::Prepared;
using benchkit::RunConfig;
using benchkit::Scenario;

Outcome outcome_of(const Graph& g, const LinialResult& res, const congest::Metrics& metrics,
                   std::uint64_t seed) {
  Outcome o;
  o.n = g.num_nodes();
  o.m = g.num_edges();
  o.seed = seed;
  o.metrics = metrics;
  o.checksum = benchkit::checksum_values(res.coloring);
  o.verified = benchkit::proper_coloring(g, res.coloring);
  return o;
}

Graph make_family(const std::string& family, NodeId n, std::uint64_t seed) {
  if (family == "randreg8") return make_random_regular(n, 8, seed);
  return make_gnp(n, 8.0 / static_cast<double>(n - 1), seed);
}

Scenario network_scenario(const std::string& family) {
  return Scenario{
      "linial.network." + family,
      "Linial color reduction, sequential Network, " + family + " (avg deg ~8)",
      family, "linial", "network", "linial." + family, /*scalable=*/false,
      [family](const RunConfig& c) {
        // Quick still needs n >> Delta^2 polylog or the reduction from
        // ids is a no-op (q^2 >= n after zero steps).
        const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 20000, 6000));
        auto g = std::make_shared<Graph>(make_family(family, n, c.seed));
        return Prepared{[g, seed = c.seed] {
          congest::Network net(*g);
          InducedSubgraph all(*g, std::vector<bool>(g->num_nodes(), true));
          const LinialResult res = runtime::linial_coloring(net, all);
          return outcome_of(*g, res, net.metrics(), seed);
        }};
      }};
}

Scenario engine_scenario(const std::string& family) {
  return Scenario{
      "linial.engine." + family,
      "Linial color reduction, ParallelEngine, " + family + " (avg deg ~8)",
      family, "linial", "engine", "linial." + family, /*scalable=*/true,
      [family](const RunConfig& c) {
        const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 20000, 6000));
        auto g = std::make_shared<Graph>(make_family(family, n, c.seed));
        return Prepared{[g, threads = c.threads, seed = c.seed] {
          runtime::ParallelEngine eng(*g, threads);
          InducedSubgraph all(*g, std::vector<bool>(g->num_nodes(), true));
          const LinialResult res = runtime::linial_coloring(eng, all);
          return outcome_of(*g, res, eng.metrics(), seed);
        }};
      }};
}

REGISTER_SCENARIO(network_scenario("gnp"));
REGISTER_SCENARIO(engine_scenario("gnp"));
REGISTER_SCENARIO(network_scenario("randreg8"));
REGISTER_SCENARIO(engine_scenario("randreg8"));

}  // namespace
}  // namespace dcolor
