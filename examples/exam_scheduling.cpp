// Exam scheduling on a conflict graph: courses sharing students cannot be
// examined in the same slot, and every course has its own list of
// admissible slots (lecturer availability). Demonstrates list coloring
// beyond (Delta+1), plus the large-diameter regime where Corollary 1.2
// (network decomposition) beats the diameter-time algorithm.
//
//   ./exam_scheduling [departments] [courses_per_department]
#include <cstdio>
#include <cstdlib>

#include "src/coloring/theorem11.h"
#include "src/decomposition/corollary12.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/util/rng.h"

int main(int argc, char** argv) {
  using namespace dcolor;
  const int departments = argc > 1 ? std::atoi(argv[1]) : 12;
  const int per_dept = argc > 2 ? std::atoi(argv[2]) : 16;

  // Departments form dense conflict clusters (shared cohorts); a sparse
  // chain of cross-listed courses links consecutive departments, so the
  // conflict graph has LARGE diameter — exactly the case where the
  // decomposition-based algorithm matters.
  Graph g = make_clustered(departments, per_dept, 0.45, departments, /*seed=*/7);
  std::printf("conflict graph: %d courses, %lld conflicts, Delta=%d, D=%d\n", g.num_nodes(),
              static_cast<long long>(g.num_edges()), g.max_degree(),
              diameter_double_sweep(g));

  // Slot lists: deg+1 slots per course from a week of 6*(Delta+1) slots,
  // clustered around the department's preferred days.
  Rng rng(99);
  const std::int64_t slots = 6 * (g.max_degree() + 1);
  std::vector<std::vector<Color>> lists(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int need = g.degree(v) + 1;
    const std::int64_t pref = (v / per_dept) * (slots / departments);
    std::vector<Color> L;
    for (std::int64_t k = 0; static_cast<int>(L.size()) < need; ++k) {
      const Color c = (pref + k) % slots;
      L.push_back(c);
    }
    lists[v] = std::move(L);
  }
  ListInstance inst(g, slots, std::move(lists));
  const ListInstance pristine = inst;

  // Corollary 1.2: decompose, then color cluster by cluster.
  Corollary12Result cres = corollary12_solve(g, pristine);
  std::printf("\nCorollary 1.2 (network decomposition):\n");
  std::printf("  decomposition: %d colors, tree depth %d, congestion %d\n",
              cres.decomposition.num_colors, cres.decomposition.max_tree_depth(),
              cres.decomposition.max_congestion());
  std::printf("  schedule valid: %s\n", pristine.valid_solution(cres.colors) ? "yes" : "NO");
  std::printf("  rounds: %lld (decomposition %lld + coloring %lld)\n",
              static_cast<long long>(cres.total_rounds),
              static_cast<long long>(cres.decomposition_rounds),
              static_cast<long long>(cres.coloring_rounds));

  // Theorem 1.1 on the same instance (pays the diameter).
  Theorem11Result tres = theorem11_solve_per_component(g, pristine);
  std::printf("\nTheorem 1.1 (diameter-time):\n");
  std::printf("  schedule valid: %s\n", pristine.valid_solution(tres.colors) ? "yes" : "NO");
  std::printf("  rounds: %lld\n", static_cast<long long>(tres.metrics.rounds));

  std::printf("\nSpeedup of the decomposition route: %.2fx\n",
              static_cast<double>(tres.metrics.rounds) /
                  static_cast<double>(std::max<std::int64_t>(1, cres.total_rounds)));
  return pristine.valid_solution(cres.colors) && pristine.valid_solution(tres.colors) ? 0 : 1;
}
