// Maximal independent sets on the active subgraph. The color-class MIS
// of Lemma 2.1's conflict resolution (one round per color class of a
// proper coloring, so it runs only after Linial has shrunk the palette
// to O(Delta_sub^2) colors) is runtime::MisColorClassesProgram, run by
// either executor through runtime::mis_by_color_classes
// (src/runtime/derand_program.h).
#pragma once

#include <vector>

#include "src/graph/graph.h"

namespace dcolor {

// Validation helper: true iff `in_mis` is independent and maximal on the
// active subgraph.
bool is_mis(const InducedSubgraph& active, const std::vector<bool>& in_mis);

}  // namespace dcolor
