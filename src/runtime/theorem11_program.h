// Theorem 1.1 on the parallel engine: the shared driver theorem11_run
// over runtime::EngineColoringTransport (coloring_transport.h), the same
// transport implementation the sequential reference runs on
// congest::Network. This yields bit-identical colors, iteration counts,
// per-iteration stats and Metrics at every thread count.
#pragma once

#include "src/coloring/theorem11.h"
#include "src/runtime/coloring_transport.h"

namespace dcolor::runtime {

// Drop-in parallel counterpart of dcolor::theorem11_solve_per_component
// (same defaults, same results, same Metrics), executed by the parallel
// engine at the given thread count.
Theorem11Result theorem11_coloring(const Graph& g, ListInstance inst, int num_threads,
                                   const PartialColoringOptions& opts = {});

}  // namespace dcolor::runtime
