#include "src/runtime/corollary12_program.h"

namespace dcolor::runtime {

EngineCorollary12Transports::EngineCorollary12Transports(const Graph& g, int num_threads,
                                                         int bandwidth_bits)
    : g_(&g), global_(g, num_threads, bandwidth_bits) {}

ColoringTransport& EngineCorollary12Transports::cluster(const Cluster& c) {
  cluster_.emplace(*g_, c, global_.bandwidth_bits());
  return cluster_->transport;
}

void EngineCorollary12Transports::run_cluster_class(const std::vector<const Cluster*>& batch,
                                                    const ClusterWork& work,
                                                    std::vector<congest::Metrics>* out_metrics) {
  // Clusters of one class share no nodes or edges (Definition 3.1), so
  // the per-cluster runs write disjoint entries of every driver-side
  // array; up to num_threads of them execute at once on the global
  // engine's pool, each on its own single-threaded transport. Each
  // cluster's result is independent of which worker ran it and lands at
  // its batch index, so the timing-dependent task→worker assignment
  // never shows in colors, rounds or Metrics.
  out_metrics->assign(batch.size(), congest::Metrics{});
  global_.executor().pool().run_tasks(batch.size(), [&](std::size_t i, int) {
    ClusterTransport<ParallelEngine> ct(*g_, *batch[i], global_.bandwidth_bits());
    work(*batch[i], ct.transport);
    (*out_metrics)[i] = ct.transport.metrics();
  });
}

Corollary12Result corollary12_coloring(const Graph& g, ListInstance inst, int num_threads,
                                       const PartialColoringOptions& opts) {
  EngineCorollary12Transports transports(g, num_threads, opts.bandwidth_bits);
  return corollary12_run(g, std::move(inst), transports, opts);
}

}  // namespace dcolor::runtime
