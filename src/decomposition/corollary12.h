// Corollary 1.2: deterministic (degree+1)-list coloring of ANY graph in
// polylog n CONGEST rounds, via a network decomposition.
//
// Pipeline: compute an (O(log n), O(log^2 n))-decomposition with
// congestion O(log n) (src/decomposition/netdecomp.h), compute one global
// Linial input coloring, then iterate through the decomposition's color
// classes; for every class, run the Theorem 1.1 loop on each cluster in
// parallel, aggregating over the cluster's associated tree instead of a
// global BFS tree. After each class one global round lets freshly colored
// nodes prune their colors from neighbors' lists across cluster borders.
//
// Round accounting follows the paper: clusters of one class run in
// parallel, so a class costs (max over its clusters) * kappa (the
// congestion factor pays for pipelining messages of up to kappa trees
// sharing an edge), plus one global pruning round.
//
// Like Theorem 1.1 (theorem11_run), the driver is written once over the
// ColoringTransport abstraction: corollary12_run issues every
// communication step (global Linial, per-cluster Lemma 2.1 loops whose
// seed-fixing ops run over the cluster's tree, the cross-cluster pruning
// exchange) through transports supplied by a Corollary12Transports
// backend. Both backends hold the one transport implementation
// (runtime::BasicColoringTransport) and differ only in their executor
// and in how they schedule clusters: corollary12_solve runs one cluster
// after another on congest::Network, and runtime::corollary12_coloring
// (src/runtime/corollary12_program.h) runs a class's clusters
// concurrently on the ParallelEngine, with bit-identical colors,
// decomposition, round accounting and Metrics.
//
// Every cluster runs on its own compact local graph (ClusterGraph), so a
// cluster's run costs O(cluster + its edges), not O(n), as the paper
// charges it.
#pragma once

#include <cassert>
#include <functional>
#include <type_traits>

#include "src/coloring/theorem11.h"
#include "src/decomposition/netdecomp.h"
#include "src/runtime/coloring_transport.h"

namespace dcolor {

struct Corollary12Result {
  std::vector<Color> colors;
  NetworkDecomposition decomposition;
  std::int64_t total_rounds = 0;      // decomposition + coloring, charged
  std::int64_t decomposition_rounds = 0;
  std::int64_t coloring_rounds = 0;
  // Coloring-phase traffic (global Linial + pruning + every per-cluster
  // run; cluster messages travel on G's edges, so totals add up).
  // `metrics.rounds` equals total_rounds, i.e. it includes the kappa
  // congestion factor and the decomposition's charged rounds.
  congest::Metrics metrics;
};

// A cluster's compact local graph, on which its Lemma 2.1 run executes.
// Local ids: the members get 0..m-1 in ascending original-id order, then
// the Steiner tree nodes (tree nodes that are not members) follow in
// ascending order. Members compare among themselves exactly as their
// original ids do, so every id comparison of the run (edge index order
// of the node sums, inbox order, MIS color classes, the Section-4 keep
// rule, tree level order) is unchanged; Steiner nodes are never active
// and only relay the tree waves. `graph` is G[members] plus the tree
// edges; `tree` is the cluster relabelled to local ids, ready for
// bind_cluster. Tree edges that are not edges of G are left out of
// `graph`, so binding `tree` throws CongestViolation as it would on G.
struct ClusterGraph {
  Graph graph;
  Cluster tree;
};

ClusterGraph make_cluster_graph(const Graph& g, const Cluster& c);

// One cluster's transport: the cluster's local graph, a single-threaded
// executor `Exec` over it, and a transport on that executor, bound to the
// cluster's tree. `bandwidth_bits` must be the global transport's
// resolved bandwidth_bits(), never 0: the default 2*ceil(log2 n)+16 would
// shrink with the local n and change the charged rounds.
template <typename Exec>
struct ClusterTransport {
  ClusterTransport(const Graph& g, const Cluster& c, int bandwidth_bits)
      : local(make_cluster_graph(g, c)),
        exec(make_executor(local.graph, bandwidth_bits)),
        transport(exec) {
    assert(bandwidth_bits > 0 && "pass the global transport's resolved bandwidth");
    transport.bind_cluster(local.tree);
  }

  static Exec make_executor(const Graph& g, int bandwidth_bits) {
    if constexpr (std::is_same_v<Exec, runtime::ParallelEngine>) {
      return Exec(g, 1, bandwidth_bits);
    } else {
      return Exec(g, bandwidth_bits);
    }
  }

  ClusterGraph local;
  Exec exec;
  runtime::BasicColoringTransport<Exec> transport;
};

// Supplies the transports the shared Corollary 1.2 driver runs over: one
// long-lived global transport (Linial input coloring + the per-class
// cross-cluster pruning exchange) and private per-cluster transports,
// each over its cluster's local graph (make_cluster_graph) and bound to
// its cluster's associated tree, over which the seed-fixing ops
// aggregate and broadcast. Clusters of one color class are pairwise
// non-adjacent (Definition 3.1), so each gets its own simulator and a
// backend may run a whole class CONCURRENTLY; corollary12_run charges the
// max of their rounds times the congestion factor either way.
class Corollary12Transports {
 public:
  virtual ~Corollary12Transports() = default;

  virtual ColoringTransport& global() = 0;

  // What the driver runs on one cluster: color it through the supplied
  // transport, whose graph is the cluster's local graph and which is
  // already bound to the cluster's tree.
  using ClusterWork = std::function<void(const Cluster&, ColoringTransport&)>;

  // Runs `work` on every cluster of `batch` — all clusters of ONE
  // decomposition color class. Same-class clusters share no nodes or
  // edges, so their runs touch disjoint per-node state and backends may
  // execute them concurrently (the engine backend dispatches them over
  // the shared thread pool). `out_metrics` is resized to the batch and
  // slot i receives cluster i's transport Metrics regardless of the
  // execution interleaving, keeping the driver's charged-round
  // accounting (kappa * max over the class) and traffic sums
  // deterministic and bit-identical across backends and thread counts.
  // The base implementation runs the batch sequentially via cluster().
  virtual void run_cluster_class(const std::vector<const Cluster*>& batch,
                                 const ClusterWork& work,
                                 std::vector<congest::Metrics>* out_metrics);

  // Fresh transport for one cluster over its local graph, same bandwidth
  // as global(), already bound to the cluster's tree (build_tree is never
  // called). The reference is invalidated by the next cluster() or
  // run_cluster_class() call on the same backend.
  virtual ColoringTransport& cluster(const Cluster& c) = 0;
};

// corollary12_run's per-cluster work: colors cluster `c` through `ct`, a
// transport over the cluster's local graph bound to its tree. Builds the
// local list instance over G[members] (a member next to a Steiner node
// would fail the |L(v)| >= deg(v)+1 check on the transport's graph) and
// the local input coloring from the global Linial coloring `lin`, runs
// the Lemma 2.1 loop, and writes the members' colors to `colors`. Reads
// only the members' entries of `inst` and `lin`, so the clusters of one
// class may run it concurrently.
void color_cluster(const Cluster& c, ColoringTransport& ct, const ListInstance& inst,
                   const LinialResult& lin, const PartialColoringOptions& opts,
                   std::vector<Color>& colors);

// The shared driver: decomposition, global Linial, per-class cluster
// coloring with kappa-charged rounds, cross-cluster pruning.
Corollary12Result corollary12_run(const Graph& g, ListInstance inst,
                                  Corollary12Transports& transports,
                                  const PartialColoringOptions& opts = {});

// Solves the instance on the sequential congest::Network backend
// (honoring opts.bandwidth_bits, default model bandwidth when 0).
Corollary12Result corollary12_solve(const Graph& g, ListInstance inst,
                                    const PartialColoringOptions& opts = {});

}  // namespace dcolor
