#include "src/coloring/baselines.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/congest/network.h"
#include "src/runtime/linial_program.h"
#include "src/util/bits.h"
#include "src/util/rng.h"

namespace dcolor {

std::vector<Color> greedy_list_coloring(const ListInstance& inst) {
  std::vector<Color> colors(inst.graph().num_nodes(), kUncolored);
  greedy_color_uncolored(inst.graph(), inst, colors);
  return colors;
}

void greedy_color_uncolored(const Graph& g, const ListInstance& inst, std::vector<Color>& colors) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (colors[v] != kUncolored) continue;
    for (Color c : inst.list(v)) {
      bool taken = false;
      for (NodeId u : g.neighbors(v)) {
        if (colors[u] == c) {
          taken = true;
          break;
        }
      }
      if (!taken) {
        colors[v] = c;
        break;
      }
    }
    assert(colors[v] != kUncolored && "degree+1 lists make greedy succeed");
  }
}

RandomizedColoringResult randomized_list_coloring(const Graph& g, ListInstance inst,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  const NodeId n = g.num_nodes();
  congest::Network net(g);
  RandomizedColoringResult res;
  res.colors.assign(n, kUncolored);
  std::vector<bool> active(n, true);
  const int cbits = std::max(inst.color_bits(), 1);

  NodeId remaining = n;
  while (remaining > 0) {
    ++res.iterations;
    // Every active node tries a uniform color from its list.
    std::vector<Color> trial(n, kUncolored);
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const auto& L = inst.list(v);
      trial[v] = L[rng.next_below(L.size())];
      for (NodeId u : g.neighbors(v)) {
        if (active[u]) net.send(v, u, static_cast<std::uint64_t>(trial[v]), cbits);
      }
    }
    net.advance_round();
    // Keep if no active neighbor tried the same color.
    std::vector<bool> keep(n, false);
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      bool clash = false;
      for (const congest::Incoming& m : net.inbox(v)) {
        if (static_cast<Color>(m.payload) == trial[v]) {
          clash = true;
          break;
        }
      }
      keep[v] = !clash;
    }
    // Announce kept colors; neighbors prune lists.
    for (NodeId v = 0; v < n; ++v) {
      if (!keep[v]) continue;
      res.colors[v] = trial[v];
      for (NodeId u : g.neighbors(v)) {
        if (active[u] && !keep[u]) {
          net.send(v, u, static_cast<std::uint64_t>(trial[v]), cbits);
        }
      }
    }
    net.advance_round();
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v] || keep[v]) continue;
      for (const congest::Incoming& m : net.inbox(v)) {
        inst.remove_color(v, static_cast<Color>(m.payload));
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (keep[v]) {
        active[v] = false;
        --remaining;
      }
    }
  }
  res.metrics = net.metrics();
  return res;
}

ColorReductionResult color_reduction_baseline(const Graph& g) {
  const NodeId n = g.num_nodes();
  congest::Network net(g);
  InducedSubgraph all(g, std::vector<bool>(n, true));
  // Start from Linial's O(Delta^2 polylog) coloring.
  LinialResult lin = runtime::linial_coloring(net, all);
  std::vector<Color> colors(lin.coloring.begin(), lin.coloring.end());
  const int delta = g.max_degree();
  const Color target = delta + 1;
  const int cbits = bit_width_of(static_cast<std::uint64_t>(
      std::max<std::int64_t>(lin.num_colors - 1, 1)));

  // One color class per round: nodes of the (current) highest class pick
  // the smallest color in [Delta+1] unused by their neighbors.
  for (Color c = lin.num_colors - 1; c >= target; --c) {
    for (NodeId v = 0; v < n; ++v) {
      net.send_all(v, static_cast<std::uint64_t>(colors[v]), cbits);
    }
    net.advance_round();
    std::vector<Color> next = colors;
    for (NodeId v = 0; v < n; ++v) {
      if (colors[v] != c) continue;
      std::vector<bool> used(static_cast<std::size_t>(delta) + 1, false);
      for (const congest::Incoming& m : net.inbox(v)) {
        const Color cu = static_cast<Color>(m.payload);
        if (cu <= delta) used[cu] = true;
      }
      Color pick = 0;
      while (used[pick]) ++pick;  // <= Delta neighbors => a free color exists
      next[v] = pick;
    }
    colors = std::move(next);
  }
  return ColorReductionResult{std::move(colors), net.metrics()};
}

}  // namespace dcolor
