// The communication interface of the seed-fixing pipelines (Theorem 1.1,
// Corollary 1.2 and the derandomized MIS).
//
// ColoringTransport carries every communication primitive the shared
// Lemma 2.1 / Theorem 1.1 core (color_one_eighth, list_color_subset) and
// the derandomized MIS core (derandomized_mis_core) issue: the Linial
// input coloring, one-round exchanges along explicit target lists, the
// Lemma 2.6 seed-fixing ops, and the conflict-resolution MIS. Each core is
// written once over this interface; congest::Network provides the
// sequential reference execution (NetworkColoringTransport below) and
// runtime::ParallelEngine the parallel one
// (runtime::EngineColoringTransport in src/runtime/theorem11_program.h).
// Implementations must charge identical CONGEST costs for identical call
// sequences — the conformance suite in tests/derand_channel_test.cpp
// holds them to it.
//
// Fixing one seed bit (Lemma 2.6) needs (a) a sum of two per-node
// conditional expectations and (b) a one-bit broadcast of the chosen
// value, both over a rooted tree that each transport owns as plain state
// (a congest::TreeData): build_tree binds a BFS tree of the whole
// communication graph (Theorem 1.1, O(D) rounds per bit); the concrete
// transports' bind_cluster binds a network-decomposition cluster's
// associated tree instead (Corollary 1.2, O(log^3 n) rounds per bit, with
// the decomposition's congestion factor charged by the caller). Both
// transports run these waves through one sequential kernel
// (src/congest/tree.h) and charge its closed-form cost.
#pragma once

#include <cstdint>
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

// Reference transport: the sequential CONGEST simulator runs Linial, the
// exchanges and the conflict MIS round by round, the golden model of the
// parallel engine's programs.
class NetworkColoringTransport final : public ColoringTransport {
 public:
  explicit NetworkColoringTransport(congest::Network& net) : net_(&net) {}

  const Graph& graph() const override { return net_->graph(); }
  int bandwidth_bits() const override { return net_->bandwidth_bits(); }

  LinialResult linial(const InducedSubgraph& active, const std::vector<std::int64_t>* initial,
                      std::int64_t initial_colors) override;
  // Floods a BFS tree from `root` and binds it (the Theorem 1.1
  // configuration).
  void build_tree(NodeId root) override;
  // Binds `cluster`'s associated tree (the Corollary 1.2 configuration);
  // issues no communication and throws CongestViolation on a tree edge
  // that is not a graph edge.
  void bind_cluster(const Cluster& cluster);
  void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<NodeId>>* from) override;
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override;
  void broadcast_bit(int bit) override;
  std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>& membership,
                                 const std::vector<std::int64_t>& input_coloring,
                                 std::int64_t input_colors) override;
  void tick(std::int64_t rounds) override { net_->tick(rounds); }
  const congest::Metrics& metrics() const override { return net_->metrics(); }

  congest::Network& network() { return *net_; }

 private:
  congest::Network* net_;
  // The bound Lemma 2.6 tree: a BFS tree (build_tree) or a cluster tree
  // (bind_cluster); binding one replaces the other.
  congest::TreeData tree_;
  congest::TreeForm form_ = congest::TreeForm::kUnbound;
  std::vector<std::uint64_t> acc_;  // wave kernel scratch
};

}  // namespace dcolor
