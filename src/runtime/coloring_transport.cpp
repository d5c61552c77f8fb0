#include "src/runtime/coloring_transport.h"

#include <algorithm>
#include <cassert>

#include "src/runtime/derand_program.h"
#include "src/runtime/linial_program.h"

namespace dcolor::runtime {
namespace {

// A private executor over `g` with the bandwidth (and thread count) of
// `like`.
congest::Network executor_over(const Graph& g, const congest::Network& like) {
  return congest::Network(g, like.bandwidth_bits());
}
ParallelEngine executor_over(const Graph& g, const ParallelEngine& like) {
  return ParallelEngine(g, like.num_threads(), like.bandwidth_bits());
}

}  // namespace

template <typename Exec>
LinialResult BasicColoringTransport<Exec>::linial(const InducedSubgraph& active,
                                                  const std::vector<std::int64_t>* initial,
                                                  std::int64_t initial_colors) {
  return linial_coloring(*exec_, active, initial, initial_colors);
}

template <typename Exec>
void BasicColoringTransport<Exec>::build_tree(NodeId root) {
  form_ = congest::TreeForm::kUnbound;  // until the flood succeeds
  pair_wave_.invalidate();
  build_tree_data(*exec_, root, &tree_);
  form_ = congest::TreeForm::kBfs;
}

template <typename Exec>
void BasicColoringTransport<Exec>::bind_cluster(const Cluster& cluster) {
  congest::bind_cluster_tree(graph(), cluster, &tree_);
  pair_wave_.invalidate();
  form_ = congest::TreeForm::kCluster;
}

template <typename Exec>
void BasicColoringTransport<Exec>::exchange_along(
    const std::vector<std::vector<NodeId>>& targets, const std::vector<char>& senders,
    const std::vector<std::uint64_t>& payloads, int bits,
    std::vector<std::vector<NodeId>>* from) {
  const int bw = bandwidth_bits();
  const int chunks = (bits + bw - 1) / bw;
  AlongExchangeProgram prog(graph(), targets, senders, payloads, std::min(bits, bw), from,
                            &exchange_roster_);
  run(*exec_, prog);
  if (chunks > 1) exec_->tick(chunks - 1);
}

template <typename Exec>
std::pair<long double, long double> BasicColoringTransport<Exec>::aggregate(
    const std::vector<long double>& values0, const std::vector<long double>& values1,
    std::optional<std::span<const NodeId>> changed) {
  congest::Metrics cost;
  const auto sums =
      pair_wave_.aggregate(tree_, form_, bandwidth_bits(), values0, values1, changed, &cost);
  exec_->charge(cost);
  return sums;
}

template <typename Exec>
void BasicColoringTransport<Exec>::broadcast_bit(int) {
  // {bit, stop} goes down every tree edge; the caller already knows
  // both, so only the charge remains.
  assert(form_ != congest::TreeForm::kUnbound && "build_tree or bind_cluster first");
  exec_->charge(congest::wave_cost(tree_, 2, bandwidth_bits()));
}

template <typename Exec>
std::vector<bool> BasicColoringTransport<Exec>::conflict_mis(
    const Graph& conf, const std::vector<bool>& membership,
    const std::vector<std::int64_t>& input_coloring, std::int64_t input_colors) {
  // The conflict graph is a subgraph of G, so its messages travel over
  // G's edges inside the same rounds: only the rounds are charged here.
  Exec conf_exec = executor_over(conf, *exec_);
  const InducedSubgraph conf_sub(conf, membership);
  const LinialResult lin = linial_coloring(conf_exec, conf_sub, &input_coloring, input_colors);
  std::vector<bool> in_mis =
      mis_by_color_classes(conf_exec, conf_sub, lin.coloring, lin.num_colors);
  exec_->tick(conf_exec.metrics().rounds);
  return in_mis;
}

template class BasicColoringTransport<congest::Network>;
template class BasicColoringTransport<ParallelEngine>;

}  // namespace dcolor::runtime
