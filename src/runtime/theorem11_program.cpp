#include "src/runtime/theorem11_program.h"

#include <utility>

namespace dcolor::runtime {

Theorem11Result theorem11_coloring(const Graph& g, ListInstance inst, int num_threads,
                                   const PartialColoringOptions& opts) {
  return theorem11_solve_components(
      g, std::move(inst), [num_threads, &opts](const Graph& sub, ListInstance sub_inst) {
        if (sub.num_nodes() == 0) return Theorem11Result{};
        EngineColoringTransport transport(sub, num_threads, opts.bandwidth_bits);
        return theorem11_run(transport, std::move(sub_inst), opts);
      });
}

}  // namespace dcolor::runtime
