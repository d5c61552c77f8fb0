// Theorem 1.1 on the parallel engine: a ColoringTransport whose
// primitives (Linial input coloring, conflict-edge exchanges, the color-
// class MIS of the conflict-resolution step) are the shared
// derandomization NodePrograms (derand_program.h) executed by the
// ParallelEngine, and whose Lemma 2.6 seed-fixing ops over a BFS or
// cluster tree run through the same sequential wave kernel
// (src/congest/tree.h) as the NetworkColoringTransport reference. Every
// primitive charges the reference's exact CONGEST costs. Combined with
// the shared core in src/coloring/partial_coloring.cpp / theorem11.cpp
// this yields bit-identical colors, iteration counts, per-iteration stats
// and Metrics at every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/theorem11.h"
#include "src/congest/tree.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

class EngineColoringTransport final : public ColoringTransport {
 public:
  EngineColoringTransport(const Graph& g, int num_threads, int bandwidth_bits = 0);

  const Graph& graph() const override { return *g_; }
  int bandwidth_bits() const override { return eng_.bandwidth_bits(); }

  LinialResult linial(const InducedSubgraph& active, const std::vector<std::int64_t>* initial,
                      std::int64_t initial_colors) override;
  // Floods a BFS tree from `root` on the engine and binds it (the
  // Theorem 1.1 configuration).
  void build_tree(NodeId root) override;
  // Rebinds the same TreeData to `cluster`'s associated tree (the
  // Corollary 1.2 configuration); issues no communication and throws
  // CongestViolation on a tree edge that is not a graph edge. Touches
  // only the cluster's nodes, so one transport serves every cluster a
  // pool worker runs without allocating in the steady state.
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
  void tick(std::int64_t rounds) override { eng_.tick(rounds); }
  const congest::Metrics& metrics() const override { return eng_.metrics(); }

  ParallelEngine& engine() { return eng_; }
  const congest::TreeData& tree() const { return tree_; }

 private:
  const Graph* g_;
  int num_threads_;
  ParallelEngine eng_;
  congest::TreeData tree_;
  congest::TreeForm form_ = congest::TreeForm::kUnbound;
  std::vector<std::uint64_t> acc_;  // wave kernel scratch
};

// Drop-in parallel counterpart of dcolor::theorem11_solve_per_component
// (same defaults, same results, same Metrics), executed by the parallel
// engine at the given thread count.
Theorem11Result theorem11_coloring(const Graph& g, ListInstance inst, int num_threads,
                                   const PartialColoringOptions& opts = {});

}  // namespace dcolor::runtime
