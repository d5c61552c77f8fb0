// Larger-scale stress: decomposition invariants on graphs up to a few
// thousand nodes, and cross-model agreement on mid-size instances. These
// run in seconds but cover the regimes the unit tests skip.
#include <gtest/gtest.h>

#include <cmath>

#include "src/coloring/derand_mis.h"
#include "src/coloring/mis.h"
#include "src/coloring/theorem11.h"
#include "src/decomposition/corollary12.h"
#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

TEST(Stress, DecompositionInvariantsAtScale) {
  for (auto [name, g] : {std::pair{"gnp2000", make_gnp(2000, 3.0 / 2000, 1)},
                         std::pair{"cycle4096", make_cycle(4096)},
                         std::pair{"grid48x48", make_grid(48, 48)},
                         std::pair{"prefattach2000", make_preferential_attachment(2000, 2, 2)}}) {
    auto d = decompose(g);
    std::string why;
    ASSERT_TRUE(validate_decomposition(g, d, &why)) << name << ": " << why;
    const double logn = std::log2(g.num_nodes());
    EXPECT_LE(d.num_colors, 2 * logn + 2) << name;
    EXPECT_LE(d.max_tree_depth(), 4 * logn * logn + 4) << name;
    EXPECT_LE(d.max_congestion(), 4 * logn + 4) << name;
  }
}

TEST(Stress, Theorem11MidSize) {
  auto g = make_gnp(600, 8.0 / 600, 9);
  auto inst = ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 3);
  const ListInstance pristine = inst;
  auto res = theorem11_solve_per_component(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
  // Iterations: log_{8/7}(600) ~ 48 is the worst case; typically ~3.
  EXPECT_LE(res.iterations, 50);
}

TEST(Stress, Corollary12MidSizeHighDiameter) {
  auto g = make_path_of_cliques(100, 5);  // n=500, D~300
  auto inst = ListInstance::delta_plus_one(g);
  const ListInstance pristine = inst;
  auto res = corollary12_solve(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

TEST(Stress, DerandMisMidSize) {
  auto g = make_gnp(500, 6.0 / 500, 4);
  auto res = derandomized_mis(g);
  EXPECT_TRUE(test::valid_mis(test::all_active(g), res.in_mis));
}

TEST(Stress, ManySeedsSmallInstances) {
  // 20 seeds x tiny graphs: the cheapest way to hit rare branch
  // combinations (forced coins, empty subranges, 1-conflict commits).
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    auto g = make_gnp(24, 0.25, seed);
    auto inst = ListInstance::shared_pool_lists(g, g.max_degree() + 2, seed);
    const ListInstance pristine = inst;
    auto res = theorem11_solve_per_component(g, std::move(inst));
    EXPECT_TRUE(pristine.valid_solution(res.colors)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dcolor
