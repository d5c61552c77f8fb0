#include "src/runtime/mis_program.h"

#include "src/runtime/coloring_transport.h"

namespace dcolor::runtime {

DerandMisResult derandomized_mis(const Graph& g, int num_threads) {
  return derandomized_mis_per_component(g, [num_threads](const Graph& sub) {
    EngineColoringTransport transport(sub, num_threads);
    return derandomized_mis_core(transport);
  });
}

}  // namespace dcolor::runtime
