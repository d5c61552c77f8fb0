// The one ColoringTransport implementation, for both executors.
//
// BasicColoringTransport<Exec> runs every primitive of the seed-fixing
// pipelines on an executor `Exec`: congest::Network, the strict
// sequential simulator, or the ParallelEngine. Linial, the BFS flood, the
// conflict-edge exchange and the color-class MIS are the NodePrograms of
// linial_program.h and derand_program.h, run through runtime::run; the
// Lemma 2.6 waves over a BFS or cluster tree go through the sequential
// kernel of src/congest/tree.h and are charged with the executor's
// charge(). Each operation has one body, so the two instantiations
// differ only in the executor that runs the programs, and
// Network-vs-engine parity still compares two independent executors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

template <typename Exec>
class BasicColoringTransport final : public ColoringTransport {
 public:
  // Runs on `exec`, which must outlive the transport.
  explicit BasicColoringTransport(Exec& exec) : exec_(&exec) { reserve(); }
  // Runs on its own executor, built from (g, args...): (g, bandwidth_bits)
  // for congest::Network, (g, num_threads, bandwidth_bits) for
  // ParallelEngine, with the executors' defaults for omitted arguments.
  template <typename... Args>
  explicit BasicColoringTransport(const Graph& g, Args... args)
      : owned_(std::in_place, g, args...), exec_(&*owned_) {
    reserve();
  }
  BasicColoringTransport(const BasicColoringTransport&) = delete;
  BasicColoringTransport& operator=(const BasicColoringTransport&) = delete;

  const Graph& graph() const override { return exec_->graph(); }
  int bandwidth_bits() const override { return exec_->bandwidth_bits(); }

  LinialResult linial(const InducedSubgraph& active, const std::vector<std::int64_t>* initial,
                      std::int64_t initial_colors) override;
  // Floods a BFS tree from `root` and binds it (the Theorem 1.1
  // configuration).
  void build_tree(NodeId root) override;
  // Binds `cluster`'s associated tree (the Corollary 1.2 configuration);
  // issues no communication and throws CongestViolation on a tree edge
  // that is not a graph edge. Touches only the cluster's nodes, so one
  // transport serves every cluster in turn without allocating in the
  // steady state.
  void bind_cluster(const Cluster& cluster);
  void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<NodeId>>* from) override;
  // Both forms run the one kernel (congest::PairWave): aggregate_pair
  // re-encodes every tree node, aggregate_pair_update only `changed`.
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override {
    return aggregate(values0, values1, std::nullopt);
  }
  std::pair<long double, long double> aggregate_pair_update(
      const std::vector<long double>& values0, const std::vector<long double>& values1,
      std::span<const NodeId> changed) override {
    return aggregate(values0, values1, changed);
  }
  // Charges a 2-bit wave down the bound tree: the chosen bit and the
  // stop bit that ends the phase once every coin is decided.
  void broadcast_bit(int bit) override;
  // Runs Linial and the MIS on a private executor over `conf`, configured
  // like this one, and charges only its rounds here.
  std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>& membership,
                                 const std::vector<std::int64_t>& input_coloring,
                                 std::int64_t input_colors) override;
  void tick(std::int64_t rounds) override { exec_->tick(rounds); }
  const congest::Metrics& metrics() const override { return exec_->metrics(); }

  Exec& executor() { return *exec_; }
  const congest::TreeData& tree() const { return tree_; }

 private:
  void reserve() { exchange_roster_.reserve(static_cast<std::size_t>(graph().num_nodes())); }
  std::pair<long double, long double> aggregate(const std::vector<long double>& values0,
                                                const std::vector<long double>& values1,
                                                std::optional<std::span<const NodeId>> changed);

  std::optional<Exec> owned_;
  Exec* exec_;
  // The bound Lemma 2.6 tree: a BFS tree (build_tree) or a cluster tree
  // (bind_cluster); binding one replaces the other.
  congest::TreeData tree_;
  congest::TreeForm form_ = congest::TreeForm::kUnbound;
  congest::PairWave pair_wave_;  // the encoded sums; invalidated on a bind
  std::vector<NodeId> exchange_roster_;  // exchange senders, reserve(n)
};

extern template class BasicColoringTransport<congest::Network>;
extern template class BasicColoringTransport<ParallelEngine>;

using NetworkColoringTransport = BasicColoringTransport<congest::Network>;
using EngineColoringTransport = BasicColoringTransport<ParallelEngine>;

}  // namespace dcolor::runtime
