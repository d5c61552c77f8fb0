// Linial color reduction as one NodeProgram, run by either executor
// (congest::Network through runtime::run, or the ParallelEngine). The
// step schedule (field size q, polynomial degree, message width per
// iteration) depends only on the initial palette and the active max
// degree, so it is planned up front; both executors then produce
// bit-identical colorings and Metrics at every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/linial.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

struct LinialStep {
  std::int64_t q = 0;      // field size of this step
  int poly_degree = 0;     // degree bound of the color polynomials
  int color_bits = 0;      // declared width of this step's color exchange
};

struct LinialSchedule {
  std::vector<LinialStep> steps;
  std::int64_t final_colors = 0;
};

// The steps Linial runs from a k-coloring on a subgraph of the given max
// degree: one per palette-shrinking reduction.
LinialSchedule plan_linial(std::int64_t initial_colors, int active_max_degree);

class LinialProgram final : public NodeProgram {
 public:
  // `coloring` is the initial coloring with values in [0, initial_colors).
  LinialProgram(const InducedSubgraph& active, std::vector<std::int64_t> coloring,
                std::int64_t initial_colors);

  void init(NodeId v, Outbox& out) override;
  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override;
  bool done(std::int64_t rounds) override {
    return rounds == static_cast<std::int64_t>(schedule_.steps.size());
  }

  const LinialSchedule& schedule() const { return schedule_; }
  std::vector<std::int64_t>& coloring() { return coloring_; }

 private:
  void send_color(NodeId v, std::uint64_t color, int bits, Outbox& out);

  const InducedSubgraph* active_;
  const Graph* g_;
  LinialSchedule schedule_;
  std::vector<std::int64_t> coloring_;
};

// Full reduction on `exec`, a congest::Network or a ParallelEngine, from
// the given coloring (default: ids) until the number of colors stops
// shrinking. Works on the subgraph induced by `active` while
// communicating over the whole network.
template <typename Exec>
LinialResult linial_coloring(Exec& exec, const InducedSubgraph& active,
                             const std::vector<std::int64_t>* initial = nullptr,
                             std::int64_t initial_colors = 0);

}  // namespace dcolor::runtime
