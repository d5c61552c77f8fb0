// Corollary 1.2 on the parallel engine: the Corollary12Transports backend
// whose per-cluster EngineColoringTransports are bound to their clusters'
// associated trees via bind_cluster (build_tree is never called — the
// decomposition already supplies the tree), running the clusters of one
// decomposition color class CONCURRENTLY over the shared thread pool.
//
// Every primitive charges the exact CONGEST costs of the Network
// reference: the cluster-tree waves run through the same wave kernel
// (src/congest/tree.h) as NetworkColoringTransport::bind_cluster's, and
// the other programs charge identical rounds, messages, bit totals and
// max message size. Combined with the shared driver
// corollary12_run this yields runtime::corollary12_coloring with
// bit-identical colors, decomposition, round accounting (including the
// kappa congestion factor and the per-class global pruning round) and
// Metrics at every thread count — tests/corollary12_engine_test.cpp
// holds it to that.
#pragma once

#include <memory>
#include <vector>

#include "src/decomposition/corollary12.h"
#include "src/runtime/theorem11_program.h"

namespace dcolor::runtime {

// Parallel backend for corollary12_run: an EngineColoringTransport over
// the whole graph for the global phases (Linial + pruning exchanges) and
// per-cluster EngineColoringTransports bound to the clusters' trees.
//
// Clusters of one decomposition color class actually run concurrently:
// run_cluster_class dispatches the class over the global engine's thread
// pool (ThreadPool::run_tasks — work-stolen, no thread respawn), and
// each pool worker owns one reusable single-threaded cluster transport
// (built lazily on first use, reused across clusters and classes — no
// per-cluster CSR rebuild beyond the tree restriction). Wall clock now
// tracks the paper's charged rounds, which bill a class as the MAX over
// its clusters; Metrics land per batch index, so colors, round
// accounting and Metrics stay bit-identical to the Network reference at
// every thread count.
class EngineCorollary12Transports final : public Corollary12Transports {
 public:
  EngineCorollary12Transports(const Graph& g, int num_threads, int bandwidth_bits = 0);

  ColoringTransport& global() override { return global_; }
  ColoringTransport& cluster(const Cluster& c) override;
  void run_cluster_class(const std::vector<const Cluster*>& batch, const ClusterWork& work,
                         std::vector<congest::Metrics>* out_metrics) override;

 private:
  // Worker `worker`'s reusable single-threaded cluster transport,
  // metrics reset; built on first use. Parallelism comes from running
  // many independent clusters at once, not from splitting one (small)
  // cluster across threads. Each pool worker owns its transport for a
  // whole run_cluster_class call, so transports never contend, and their
  // TreeData and wave scratch persist across clusters, so the steady
  // state allocates nothing per cluster.
  EngineColoringTransport& slot(int worker);

  const Graph* g_;
  int num_threads_;
  EngineColoringTransport global_;
  std::vector<std::unique_ptr<EngineColoringTransport>> cluster_pool_;
};

// Drop-in parallel counterpart of dcolor::corollary12_solve (same
// defaults, same results, same round accounting and Metrics), executed
// by the parallel engine at the given thread count.
Corollary12Result corollary12_coloring(const Graph& g, ListInstance inst, int num_threads,
                                       const PartialColoringOptions& opts = {});

}  // namespace dcolor::runtime
