#include "src/runtime/theorem11_program.h"

#include <cassert>
#include <utility>

#include "src/congest/bfs_tree.h"  // to_fixed/from_fixed codec
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
  form_ = TreeForm::kBfs;
}

void EngineColoringTransport::bind_cluster(const Cluster& cluster) {
  cluster_tree_data(*g_, cluster, &tree_);
  form_ = TreeForm::kCluster;
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
  assert(form_ != TreeForm::kUnbound && "build_tree or bind_cluster first");
  if (form_ == TreeForm::kCluster) {
    const auto [sum0, sum1] = aggregate_fixed_pair_sum(eng_, tree_, values0, values1, &scratch_);
    return {congest::from_fixed(sum0), congest::from_fixed(sum1)};
  }
  // BFS-tree form, exactly as the Network transport's: the first word is
  // aggregated over the tree, the second rides the same wave as one extra
  // pipelined chunk (summed in memory, one charged round).
  //
  // Known accounting gap (ROADMAP item 4): that second sum is an
  // unquantized long double, and the wave is charged ceil(64/B) rounds
  // beyond the depth where a real 128-bit wave costs ceil(128/B) - 1
  // (the cluster-tree form above): 2 instead of 3 per seed bit at B=40,
  // 6 instead of 10 at B=12, one extra round at B>=128. Switching to the
  // faithful form changes colours and rounds, so it waits for a
  // deliberate re-baseline.
  const long double s0 =
      congest::from_fixed(aggregate_fixed_sum(eng_, tree_, values0, &scratch_));
  long double s1 = 0.0L;
  for (long double v : values1) s1 += v;
  eng_.tick(1);
  return {s0, s1};
}

void EngineColoringTransport::broadcast_bit(int bit) {
  assert(form_ != TreeForm::kUnbound && "build_tree or bind_cluster first");
  // Both tree forms broadcast alike: depth rounds, one 1-bit flag-plane
  // message per tree edge.
  tree_broadcast(eng_, tree_, static_cast<std::uint64_t>(bit), 1);
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
