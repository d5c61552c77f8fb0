#include "src/runtime/corollary12_program.h"

#include <memory>

namespace dcolor::runtime {

EngineCorollary12Transports::EngineCorollary12Transports(const Graph& g, int num_threads,
                                                         int bandwidth_bits)
    : g_(&g), global_(g, num_threads, bandwidth_bits) {
  cluster_pool_.resize(static_cast<std::size_t>(global_.executor().pool().num_threads()));
}

EngineColoringTransport& EngineCorollary12Transports::slot(int worker) {
  std::unique_ptr<EngineColoringTransport>& t = cluster_pool_[static_cast<std::size_t>(worker)];
  if (!t) {
    // Built once, then reused for every later cluster this worker runs:
    // ParallelEngine::run is reusable (each run gets a fresh stamp
    // space) and resetting Metrics cannot alias stale inbox stamps, so
    // rebinding the tree + zeroing the counters gives a bit-identical
    // fresh transport without rebuilding the CSR buffers or respawning
    // threads per cluster. bind_cluster touches only the new cluster's
    // nodes.
    t = std::make_unique<EngineColoringTransport>(*g_, 1, global_.bandwidth_bits());
  } else {
    t->executor().reset_metrics();
  }
  return *t;
}

ColoringTransport& EngineCorollary12Transports::cluster(const Cluster& c) {
  EngineColoringTransport& t = slot(0);
  t.bind_cluster(c);
  return t;
}

void EngineCorollary12Transports::run_cluster_class(const std::vector<const Cluster*>& batch,
                                                    const ClusterWork& work,
                                                    std::vector<congest::Metrics>* out_metrics) {
  // Clusters of one class share no nodes or edges (Definition 3.1), so
  // the per-cluster runs write disjoint entries of every driver-side
  // array; up to num_threads of them execute at once on the global
  // engine's pool, each on the worker's own single-threaded transport.
  // Each cluster's result is independent of which worker ran it and
  // lands at its batch index, so the timing-dependent task→worker
  // assignment never shows in colors, rounds or Metrics.
  out_metrics->assign(batch.size(), congest::Metrics{});
  global_.executor().pool().run_tasks(batch.size(), [&](std::size_t i, int worker) {
    EngineColoringTransport& t = slot(worker);
    t.bind_cluster(*batch[i]);
    work(*batch[i], t);
    (*out_metrics)[i] = t.metrics();
  });
}

Corollary12Result corollary12_coloring(const Graph& g, ListInstance inst, int num_threads,
                                       const PartialColoringOptions& opts) {
  EngineCorollary12Transports transports(g, num_threads, opts.bandwidth_bits);
  return corollary12_run(g, std::move(inst), transports, opts);
}

}  // namespace dcolor::runtime
