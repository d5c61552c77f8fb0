#include "src/runtime/linial_program.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/util/bits.h"

namespace dcolor::runtime {

LinialSchedule plan_linial(std::int64_t initial_colors, int active_max_degree) {
  LinialSchedule s;
  std::int64_t k = initial_colors;
  // Run a step only while it shrinks the palette (checking BEFORE the
  // step: a non-shrinking step would rewrite colors into a larger space).
  for (;;) {
    int degree = 0;
    const std::int64_t q = linial_field(k, std::max(active_max_degree, 1), &degree);
    if (q * q >= k) break;
    const int color_bits =
        bit_width_of(static_cast<std::uint64_t>(std::max<std::int64_t>(k - 1, 1)));
    s.steps.push_back(LinialStep{q, degree, color_bits});
    k = q * q;
  }
  s.final_colors = k;
  return s;
}

LinialProgram::LinialProgram(const InducedSubgraph& active,
                             std::vector<std::int64_t> coloring, std::int64_t initial_colors)
    : active_(&active), g_(&active.base()), coloring_(std::move(coloring)) {
  int delta = 0;
  for (NodeId v = 0; v < g_->num_nodes(); ++v) {
    if (active.contains(v)) delta = std::max(delta, active.degree(v));
  }
  schedule_ = plan_linial(initial_colors, delta);
}

void LinialProgram::send_color(NodeId v, std::uint64_t color, int bits, Outbox& out) {
  const auto nb = g_->neighbors(v);
  for (std::size_t j = 0; j < nb.size(); ++j) {
    if (active_->contains(nb[j])) out.send_nth(static_cast<int>(j), color, bits);
  }
}

void LinialProgram::init(NodeId v, Outbox& out) {
  if (schedule_.steps.empty() || !active_->contains(v)) return;
  send_color(v, static_cast<std::uint64_t>(coloring_[v]), schedule_.steps[0].color_bits,
             out);
}

void LinialProgram::on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) {
  if (!active_->contains(v)) return;
  const LinialStep& st = schedule_.steps[round - 1];
  const std::int64_t q = st.q;
  const int degree = st.poly_degree;
  const std::int64_t my_color = coloring_[v];

  // Gather neighbor colors into per-thread scratch: no steady-state
  // allocation (the result is independent of gather order).
  static thread_local std::vector<std::int64_t> nb_colors;
  nb_colors.clear();
  in.for_each(
      [&](NodeId, std::uint64_t payload) { nb_colors.push_back(static_cast<std::int64_t>(payload)); });

  const std::int64_t next = linial_pick_next_color(my_color, nb_colors, q, degree);
  // Neighbors only ever see coloring_[v] through messages, so updating in
  // place is race-free under the phase barrier.
  coloring_[v] = next;
  if (round < static_cast<std::int64_t>(schedule_.steps.size())) {
    send_color(v, static_cast<std::uint64_t>(next), schedule_.steps[round].color_bits, out);
  }
}

template <typename Exec>
LinialResult linial_coloring(Exec& exec, const InducedSubgraph& active,
                             const std::vector<std::int64_t>* initial,
                             std::int64_t initial_colors) {
  const Graph& g = exec.graph();
  std::vector<std::int64_t> coloring;
  std::int64_t k = 0;
  if (initial != nullptr) {
    coloring = *initial;
    k = initial_colors;
  } else {
    coloring.resize(g.num_nodes());
    std::iota(coloring.begin(), coloring.end(), 0);
    k = g.num_nodes();
  }
  LinialProgram prog(active, std::move(coloring), k);
  run(exec, prog);
  LinialResult res;
  res.coloring = std::move(prog.coloring());
  res.num_colors = prog.schedule().final_colors;
  res.iterations = static_cast<int>(prog.schedule().steps.size());
  return res;
}

template LinialResult linial_coloring(congest::Network&, const InducedSubgraph&,
                                      const std::vector<std::int64_t>*, std::int64_t);
template LinialResult linial_coloring(ParallelEngine&, const InducedSubgraph&,
                                      const std::vector<std::int64_t>*, std::int64_t);

}  // namespace dcolor::runtime
