// Derandomized MIS on the parallel engine: the shared core in
// src/coloring/derand_mis.cpp run over runtime::EngineColoringTransport
// (src/runtime/coloring_transport.h), the transport that
// dcolor::derandomized_mis runs on congest::Network. MIS results,
// iteration counts and Metrics are bit-identical to it at every thread
// count.
#pragma once

#include "src/coloring/derand_mis.h"

namespace dcolor::runtime {

// Deterministic MIS on the communication graph, executed by the parallel
// engine at the given thread count. Produces results and Metrics
// bit-identical to dcolor::derandomized_mis.
DerandMisResult derandomized_mis(const Graph& g, int num_threads);

}  // namespace dcolor::runtime
