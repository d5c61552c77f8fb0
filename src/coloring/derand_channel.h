// The communication interface of the seed-fixing pipelines (Theorem 1.1,
// Corollary 1.2 and the derandomized MIS).
//
// ColoringTransport carries every communication primitive the shared
// Lemma 2.1 / Theorem 1.1 core (color_one_eighth, list_color_subset) and
// the derandomized MIS core (derandomized_mis_core) issue: the Linial
// input coloring, one-round exchanges along explicit target lists, the
// Lemma 2.6 seed-fixing ops, and the conflict-resolution MIS. Each core is
// written once over this interface, and one class implements it:
// runtime::BasicColoringTransport (src/runtime/coloring_transport.h),
// instantiated for the sequential congest::Network
// (runtime::NetworkColoringTransport, the reference) and for the
// runtime::ParallelEngine (runtime::EngineColoringTransport). Both
// executors must charge identical CONGEST costs for identical call
// sequences; the parity suites in tests/derand_channel_test.cpp and
// tests/runtime_engine_test.cpp hold them to it.
//
// Fixing one seed bit (Lemma 2.6) needs (a) a sum of two per-node
// conditional expectations and (b) a broadcast of the chosen bit (with
// the stop bit below), both over a rooted tree that the transport owns
// as plain state (a congest::TreeData): build_tree binds a BFS tree of
// the whole communication graph (Theorem 1.1, O(D) rounds per bit); the
// transport's bind_cluster binds a network-decomposition cluster's
// associated tree instead (Corollary 1.2, O(log^3 n) rounds per bit,
// with the decomposition's congestion factor charged by the caller).
// These waves run through one sequential kernel (src/congest/tree.h),
// which charges their closed-form cost. A caller that knows which nodes'
// sums moved since the previous seed bit passes them to
// aggregate_pair_update, and the kernel re-encodes only those nodes; a
// decorator that forwards only aggregate_pair still returns the same
// sums, over the full path.
//
// A phase stops at its first seed bit j at which every coin is decided
// (PairProbEngine::decided()): the convergecast of bit j carries, next to
// the sums, the OR of every node's "free and tight" flag, which each node
// knows from its own threshold, its input colour and the bits broadcast
// so far; the root finds it 0 and broadcasts the stop bit with bit j, and
// no later bit of the phase runs. The caller makes bit j's usual calls
// (aggregate_pair or aggregate_pair_update, then broadcast_bit) and
// leaves the sums unused. Every wave pair is charged the flag and the
// stop bit (pair_wave_cost, and a 2-bit broadcast_bit), so a phase of d
// seed bits costs min(j + 1, d) wave pairs, one when no node is free;
// a decorator that forwards the calls charges exactly the same.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/coloring/linial.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/decomposition/netdecomp.h"

namespace dcolor {

class ColoringTransport {
 public:
  virtual ~ColoringTransport() = default;

  virtual const Graph& graph() const = 0;
  virtual int bandwidth_bits() const = 0;

  // Proper input coloring of the active subgraph, Linial-style (from ids
  // when `initial` is null, otherwise from the given proper coloring).
  virtual LinialResult linial(const InducedSubgraph& active,
                              const std::vector<std::int64_t>* initial,
                              std::int64_t initial_colors) = 0;

  // Build the aggregation tree rooted at `root` (graph must be
  // connected); later aggregate_pair/broadcast_bit calls run over it.
  // Cluster-scoped transports (Corollary 1.2) are bound to their
  // cluster's tree instead and are never asked to build one.
  virtual void build_tree(NodeId root) = 0;

  // One round: every node v with senders[v] != 0 sends payloads[v],
  // declared `bits` wide, to every u in targets[v]. Each targets[v] must
  // be an ascending subset of v's adjacency. Wide payloads are split into
  // ceil(bits/B) pipelined chunks: only the first chunk travels through
  // the simulator, the extra chunks are charged as idle rounds, and
  // receivers observe the sender's full payload. If `from` is non-null,
  // (*from)[v] is set to the ids v received from, in ascending order.
  virtual void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                              const std::vector<char>& senders,
                              const std::vector<std::uint64_t>& payloads, int bits,
                              std::vector<std::vector<NodeId>>* from) = 0;

  // Seed-fixing ops (Lemma 2.6), over the bound tree (build_tree, or
  // the cluster tree of a cluster-scoped transport).
  virtual std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) = 0;
  // aggregate_pair, told which nodes moved: returns the same sums and
  // charges the same cost as aggregate_pair(values0, values1), provided
  // only the nodes in `changed` (repeats and non-tree nodes allowed)
  // differ in values0 or values1 since this transport's previous
  // aggregate call of either form on the bound tree. Binding a tree
  // starts afresh, so the first call after it may list anything. The
  // default forwards to aggregate_pair, which keeps every decorator that
  // does not know this call correct.
  virtual std::pair<long double, long double> aggregate_pair_update(
      const std::vector<long double>& values0, const std::vector<long double>& values1,
      std::span<const NodeId> changed) {
    static_cast<void>(changed);
    return aggregate_pair(values0, values1);
  }
  // Broadcasts the chosen bit, with the phase's stop bit, down the bound
  // tree.
  virtual void broadcast_bit(int bit) = 0;

  // Conflict resolution of Lemma 2.1: on the materialized conflict graph
  // `conf` (max degree <= 3) restricted to `membership`, run Linial from
  // the phase's input coloring and then the color-class MIS. Only rounds
  // are charged to this transport (the conflict graph is a subgraph of G,
  // so its messages travel on G's edges inside the same rounds).
  virtual std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>& membership,
                                         const std::vector<std::int64_t>& input_coloring,
                                         std::int64_t input_colors) = 0;

  // Charged idle rounds (pipelined chunks, conservative accounting).
  virtual void tick(std::int64_t rounds) = 0;

  virtual const congest::Metrics& metrics() const = 0;
};

}  // namespace dcolor
