// Corollary 1.2 on the parallel engine: the Corollary12Transports backend
// whose per-cluster EngineColoringTransports run on the clusters' local
// graphs (make_cluster_graph), bound to their associated trees
// (build_tree is never called — the decomposition already supplies the
// tree), running the clusters of one decomposition color class
// CONCURRENTLY over the shared thread pool.
//
// The transports are the one ColoringTransport implementation
// (coloring_transport.h) on the engine, so every primitive runs the
// program or wave kernel the Network reference runs and charges its
// exact CONGEST costs. Combined with the shared driver
// corollary12_run this yields runtime::corollary12_coloring with
// bit-identical colors, decomposition, round accounting (including the
// kappa congestion factor and the per-class global pruning round) and
// Metrics at every thread count — tests/corollary12_engine_test.cpp
// holds it to that.
#pragma once

#include <optional>
#include <vector>

#include "src/decomposition/corollary12.h"
#include "src/runtime/coloring_transport.h"

namespace dcolor::runtime {

// Parallel backend for corollary12_run: an EngineColoringTransport over
// the whole graph for the global phases (Linial + pruning exchanges) and
// a fresh single-threaded EngineColoringTransport per cluster, over the
// cluster's local graph and bound to its tree.
//
// Clusters of one decomposition color class actually run concurrently:
// run_cluster_class dispatches the class over the global engine's thread
// pool (ThreadPool::run_tasks — work-stolen, no thread respawn), and
// each task builds its cluster's transport, which is cluster-sized, so
// a cluster costs O(cluster + its edges) however large G is. Parallelism
// comes from running many independent clusters at once, not from
// splitting one (small) cluster across threads. Wall clock tracks the
// paper's charged rounds, which bill a class as the MAX over its
// clusters; Metrics land per batch index, so colors, round accounting
// and Metrics stay bit-identical to the Network reference at every
// thread count.
class EngineCorollary12Transports final : public Corollary12Transports {
 public:
  EngineCorollary12Transports(const Graph& g, int num_threads, int bandwidth_bits = 0);

  ColoringTransport& global() override { return global_; }
  ColoringTransport& cluster(const Cluster& c) override;
  void run_cluster_class(const std::vector<const Cluster*>& batch, const ClusterWork& work,
                         std::vector<congest::Metrics>* out_metrics) override;

 private:
  const Graph* g_;
  EngineColoringTransport global_;
  std::optional<ClusterTransport<ParallelEngine>> cluster_;  // cluster()'s
};

// Drop-in parallel counterpart of dcolor::corollary12_solve (same
// defaults, same results, same round accounting and Metrics), executed
// by the parallel engine at the given thread count.
Corollary12Result corollary12_coloring(const Graph& g, ListInstance inst, int num_threads,
                                       const PartialColoringOptions& opts = {});

}  // namespace dcolor::runtime
