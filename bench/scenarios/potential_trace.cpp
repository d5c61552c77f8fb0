// Lemma 2.6 potential-invariant workload (successor of
// bench_potential_trace): the shared Lemma 2.1 driver plus a
// verification that REPLAYS the paper's no-regret argument — after
// fixing bit l, Sum Phi_l <= Phi_0 + (l+1) * n/ceil(logC) must hold
// phase by phase (up to the fixed-point aggregation slack absorbed by
// epsilon).
#include <memory>

#include "bench/scenarios/scenario_common.h"

namespace dcolor {
namespace {

using benchkit::Outcome;
using benchkit::Prepared;
using benchkit::RunConfig;
using benchkit::Scenario;

REGISTER_SCENARIO(Scenario{
    "partial.network.potential.gnp",
    "Lemma 2.6 potential invariant, checked phase-by-phase during Lemma 2.1",
    "gnp", "partial", "network", "", /*scalable=*/false,
    [](const RunConfig& c) {
      const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 1024, 192));
      auto g = std::make_shared<Graph>(bench_scenarios::connected_gnp(n, 8.0, 5));
      return Prepared{[g] {
        auto run = bench_scenarios::run_one_eighth(*g, 5, /*avoid_mis=*/false, 5);
        Outcome o = run.outcome;

        // The Lemma 2.6 budget: Phi_0 <= n, so after phase l the
        // potential must stay under n + (l+1) * n/phases (small epsilon
        // slack for the fixed-point aggregation noise).
        bool within_budget = run.stats.phases > 0;
        const double dn = static_cast<double>(g->num_nodes());
        for (int l = 0; l < run.stats.phases; ++l) {
          const double phi = static_cast<double>(run.stats.potential_after_phase[l]);
          const double budget = dn + (l + 1) * dn / run.stats.phases;
          within_budget = within_budget && phi <= budget * (1.0 + 1e-9);
        }
        o.verified = o.verified && within_budget;
        return o;
      }};
    }});

}  // namespace
}  // namespace dcolor
