#include "src/runtime/theorem11_program.h"

#include <cassert>
#include <utility>

#include "src/runtime/linial_program.h"

namespace dcolor::runtime {

EngineColoringTransport::EngineColoringTransport(const Graph& g, int num_threads,
                                                 int bandwidth_bits)
    : g_(&g), num_threads_(num_threads), eng_(g, num_threads, bandwidth_bits) {}

LinialResult EngineColoringTransport::linial(const InducedSubgraph& active,
                                             const std::vector<std::int64_t>* initial,
                                             std::int64_t initial_colors) {
  return linial_coloring(eng_, active, initial, initial_colors);
}

void EngineColoringTransport::build_tree(NodeId root) {
  build_tree_data(eng_, root, &tree_);
  form_ = congest::TreeForm::kBfs;
}

void EngineColoringTransport::bind_cluster(const Cluster& cluster) {
  congest::bind_cluster_tree(*g_, cluster, &tree_);
  form_ = congest::TreeForm::kCluster;
}

void EngineColoringTransport::exchange_along(const std::vector<std::vector<NodeId>>& targets,
                                             const std::vector<char>& senders,
                                             const std::vector<std::uint64_t>& payloads,
                                             int bits,
                                             std::vector<std::vector<NodeId>>* from) {
  const int bw = eng_.bandwidth_bits();
  const int chunks = (bits + bw - 1) / bw;
  const int first_bits = std::min(bits, bw);
  AlongExchangeProgram prog(*g_, targets, senders, payloads, first_bits, from);
  eng_.run(prog);
  if (chunks > 1) eng_.tick(chunks - 1);
}

std::pair<long double, long double> EngineColoringTransport::aggregate_pair(
    const std::vector<long double>& values0, const std::vector<long double>& values1) {
  congest::Metrics cost;
  const auto sums = congest::aggregate_pair_wave(tree_, form_, eng_.bandwidth_bits(), values0,
                                                 values1, &acc_, &cost);
  eng_.charge(cost);
  return sums;
}

void EngineColoringTransport::broadcast_bit(int) {
  // The chosen bit goes down every tree edge; the caller already knows
  // it, so only the charge remains.
  assert(form_ != congest::TreeForm::kUnbound && "build_tree or bind_cluster first");
  eng_.charge(congest::wave_cost(tree_, 1, eng_.bandwidth_bits()));
}

std::vector<bool> EngineColoringTransport::conflict_mis(
    const Graph& conf, const std::vector<bool>& membership,
    const std::vector<std::int64_t>& input_coloring, std::int64_t input_colors) {
  // Private engine over the conflict graph (same bandwidth, same thread
  // count); only its rounds are charged to the main engine — mirroring
  // the reference transport, whose conflict messages travel over G's
  // edges inside the same rounds.
  ParallelEngine conf_eng(conf, num_threads_, eng_.bandwidth_bits());
  InducedSubgraph conf_sub(conf, membership);
  LinialResult lin = linial_coloring(conf_eng, conf_sub, &input_coloring, input_colors);
  MisColorClassesProgram prog(conf_sub, lin.coloring, lin.num_colors);
  conf_eng.run(prog);
  eng_.tick(conf_eng.metrics().rounds);
  return prog.in_mis();
}

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
