#include "src/coloring/mis.h"

namespace dcolor {

bool is_mis(const InducedSubgraph& active, const std::vector<bool>& in_mis) {
  const Graph& g = active.base();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active.contains(v)) continue;
    bool has_mis_neighbor = false;
    bool ok = true;
    active.for_each_neighbor(v, [&](NodeId u) {
      if (in_mis[u]) {
        has_mis_neighbor = true;
        if (in_mis[v]) ok = false;  // independence violated
      }
    });
    if (!ok) return false;
    if (!in_mis[v] && !has_mis_neighbor) return false;  // not maximal
  }
  return true;
}

}  // namespace dcolor
