// The sequential NodeProgram runner over congest::Network (declared in
// parallel_engine.h next to the Outbox it drives).
#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

std::int64_t run(congest::Network& net, NodeProgram& program) {
  // The Inbox views read one Slot per CSR neighbour, node v's slots
  // following those of nodes 0..v-1. A slot is live when its stamp is the
  // current delivery's epoch; epochs only grow, so the array is reused by
  // every run on this thread and never cleared. (A hook must therefore
  // not start another Network run on its own thread.)
  static thread_local std::vector<Slot> slots;
  static thread_local std::int64_t epoch = 0;
  const Graph& g = net.graph();
  const NodeId n = g.num_nodes();
  if (slots.size() < static_cast<std::size_t>(2 * g.num_edges())) {
    slots.resize(static_cast<std::size_t>(2 * g.num_edges()));
  }
  Outbox out(&net);
  // Runs one phase over every node; returns the messages it staged.
  const auto phase = [&](const auto& per_node) {
    const std::int64_t before = net.metrics().messages;
    for (NodeId v = 0; v < n; ++v) {
      out.self_ = v;
      per_node(v);
    }
    return net.metrics().messages - before;
  };

  std::int64_t staged = phase([&](NodeId v) { program.init(v, out); });
  std::int64_t rounds = 0;
  while (!program.done(rounds)) {
    net.advance_round();
    const std::int64_t r = ++rounds;
    const std::int64_t e = ++epoch;
    Slot* mine = slots.data();
    staged = phase([&](NodeId v) {
      const auto nb = g.neighbors(v);
      for (const congest::Incoming& m : net.inbox(v)) {
        mine[std::lower_bound(nb.begin(), nb.end(), m.from) - nb.begin()] = Slot{m.payload, e};
      }
      program.on_round(r, v, Inbox(mine, nb.data(), static_cast<int>(nb.size()), e), out);
      mine += nb.size();
    });
  }
  if (staged != 0) throw std::logic_error("NodeProgram staged sends in its final phase");
  return rounds;
}

}  // namespace dcolor::runtime
