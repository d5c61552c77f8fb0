#include "src/coloring/theorem11.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/coloring/linial.h"
#include "src/graph/properties.h"
#include "src/obs/obs.h"
#include "src/runtime/coloring_transport.h"

namespace dcolor {

int list_color_subset(ColoringTransport& t, InducedSubgraph& active, ListInstance& inst,
                      std::vector<Color>& colors,
                      const std::vector<std::int64_t>& input_coloring, std::int64_t K,
                      const PartialColoringOptions& opts,
                      std::vector<PartialColoringStats>* stats) {
  NodeId remaining = 0;
  for (NodeId v = 0; v < t.graph().num_nodes(); ++v) remaining += active.contains(v) ? 1 : 0;
  int iterations = 0;
  while (remaining > 0) {
    obs::Span iter_span(obs::kCatPhase, "theorem11.iteration");
    PartialColoringStats st =
        color_one_eighth(t, active, inst, colors, input_coloring, K, opts);
    if (stats != nullptr) stats->push_back(st);
    ++iterations;
    // Lemma 2.1 colors at least one node; an iteration that colors none
    // would repeat forever, so a transport that breaks the guarantee
    // (an MIS that selects nobody, say) is an error, not a hang.
    if (st.newly_colored < 1) {
      throw std::logic_error("list_color_subset: Lemma 2.1 iteration " +
                             std::to_string(iterations) + " colored no node of " +
                             std::to_string(remaining));
    }
    remaining -= st.newly_colored;
    if (iter_span.live()) {
      iter_span.arg("iteration", iterations);
      iter_span.arg("newly_colored", st.newly_colored);
      iter_span.arg("remaining", remaining);
      // Progress-per-iteration distribution (Lemma 2.1 floor vs typical);
      // deterministic, so identical at every thread count.
      obs::value(obs::kCatMetric, "theorem11.newly_colored", st.newly_colored);
    }
  }
  return iterations;
}

Theorem11Result theorem11_run(ColoringTransport& t, ListInstance inst,
                              const PartialColoringOptions& opts) {
  Theorem11Result res;
  const Graph& g = t.graph();
  const NodeId n = g.num_nodes();
  res.colors.assign(n, kUncolored);
  if (n == 0) return res;

  InducedSubgraph active(g, std::vector<bool>(n, true));

  // Initial K = O(Delta^2 polylog) coloring via Linial (from ids).
  LinialResult lin;
  {
    obs::Span linial_span(obs::kCatPhase, "theorem11.linial");
    lin = t.linial(active, nullptr, 0);
    linial_span.arg("num_colors", lin.num_colors);
  }
  res.input_colors = lin.num_colors;

  // Aggregation tree (rooted at node 0; any designated leader works).
  {
    obs::Span tree_span(obs::kCatPhase, "theorem11.tree");
    t.build_tree(0);
  }

  res.iterations = list_color_subset(t, active, inst, res.colors, lin.coloring,
                                     lin.num_colors, opts, &res.per_iteration);
  res.metrics = t.metrics();
  return res;
}

Theorem11Result theorem11_solve(const Graph& g, ListInstance inst,
                                const PartialColoringOptions& opts) {
  if (g.num_nodes() == 0) return Theorem11Result{};
  runtime::NetworkColoringTransport transport(g, opts.bandwidth_bits);
  return theorem11_run(transport, std::move(inst), opts);
}

Theorem11Result theorem11_solve_components(
    const Graph& g, ListInstance inst,
    const std::function<Theorem11Result(const Graph&, ListInstance)>& solve_connected) {
  Theorem11Result res;
  res.colors.assign(g.num_nodes(), kUncolored);
  const bool split =
      for_each_component(g, [&](const Graph& sub, const std::vector<NodeId>& global) {
        std::vector<std::vector<Color>> lists(global.size());
        for (std::size_t i = 0; i < global.size(); ++i) lists[i] = inst.list(global[i]);
        const Theorem11Result part =
            solve_connected(sub, ListInstance(sub, inst.color_space(), std::move(lists)));
        for (std::size_t i = 0; i < global.size(); ++i) res.colors[global[i]] = part.colors[i];
        res.metrics.merge_parallel(part.metrics);
        res.iterations = std::max(res.iterations, part.iterations);
        res.input_colors = std::max(res.input_colors, part.input_colors);
      });
  if (!split) return solve_connected(g, std::move(inst));
  return res;
}

Theorem11Result theorem11_solve_per_component(const Graph& g, ListInstance inst,
                                              const PartialColoringOptions& opts) {
  return theorem11_solve_components(
      g, std::move(inst), [&opts](const Graph& sub, ListInstance sub_inst) {
        return theorem11_solve(sub, std::move(sub_inst), opts);
      });
}

}  // namespace dcolor
