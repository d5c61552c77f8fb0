// Unit tests for the segment-granular derandomization shared by the
// clique and MPC algorithms.
#include <gtest/gtest.h>

#include <cmath>

#include "src/coloring/segment_derand.h"
#include "src/hash/coin_family.h"
#include "src/util/rng.h"

namespace dcolor {
namespace {

TEST(MultiwayBounds, CoversAndRespectsEmptiness) {
  for (int b : {4, 8, 12}) {
    const std::uint64_t full = std::uint64_t{1} << b;
    const std::vector<int> counts = {3, 0, 5, 1, 0, 7};
    auto bounds = multiway_bounds(counts, b);
    ASSERT_EQ(bounds.size(), counts.size() + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), full);
    for (std::size_t g = 0; g < counts.size(); ++g) {
      EXPECT_LE(bounds[g], bounds[g + 1]);
      if (counts[g] == 0) {
        EXPECT_EQ(bounds[g], bounds[g + 1]);  // empty subranges are never hit
      } else {
        EXPECT_LT(bounds[g], bounds[g + 1]);  // nonempty subranges are hittable
      }
      // Interval length within 2^-b of the exact probability (Lemma 2.5).
      const long double p =
          static_cast<long double>(counts[g]) / 16.0L;  // total = 16
      const long double realized =
          static_cast<long double>(bounds[g + 1] - bounds[g]) / full;
      EXPECT_NEAR(static_cast<double>(realized), static_cast<double>(p), 2.0 / full);
    }
  }
}

TEST(MultiwayBounds, SingletonAndUniform) {
  auto b1 = multiway_bounds({5}, 6);
  EXPECT_EQ(b1, (std::vector<std::uint64_t>{0, 64}));
  auto b2 = multiway_bounds({1, 1, 1, 1}, 4);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(b2[g + 1] - b2[g], 4u);
}

// The keyed potential of a selection: every directed conflict edge (v,u)
// whose selections share a color key adds 1/counts_v. `selected` empty
// gives the expectation of the random process instead (each subrange is
// hit with its interval's length).
long double keyed_potential(const std::vector<MultiwaySpec>& specs,
                            const std::vector<std::vector<NodeId>>& conflict, int b,
                            const std::vector<int>& selected = {}) {
  const long double full = static_cast<long double>(std::uint64_t{1} << b);
  auto pr = [&](NodeId v, std::size_t g) -> long double {
    if (!selected.empty()) return selected[v] == static_cast<int>(g) ? 1.0L : 0.0L;
    return (specs[v].bounds[g + 1] - specs[v].bounds[g]) / full;
  };
  long double phi = 0;
  for (std::size_t v = 0; v < specs.size(); ++v) {
    for (NodeId u : conflict[v]) {
      for (std::size_t gv = 0; gv < specs[v].keys.size(); ++gv) {
        if (specs[v].counts[gv] == 0) continue;
        for (std::size_t gu = 0; gu < specs[u].keys.size(); ++gu) {
          if (specs[v].keys[gv] != specs[u].keys[gu]) continue;
          phi += pr(static_cast<NodeId>(v), gv) * pr(u, gu) / specs[v].counts[gv];
        }
      }
    }
  }
  return phi;
}

std::vector<std::vector<NodeId>> ring(int n) {
  std::vector<std::vector<NodeId>> conflict(n);
  for (int v = 0; v < n; ++v) {
    conflict[v] = {static_cast<NodeId>((v + 1) % n), static_cast<NodeId>((v + n - 1) % n)};
  }
  return conflict;
}

// The derandomized selection must always land in a NONEMPTY subrange and,
// on the commit cycle's prefix keys (subrange g keyed g on every node),
// produce at most the expected potential (method of conditional
// expectations: result <= expectation).
TEST(SegmentDerand, SelectionsValidAndBeatExpectation) {
  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8;
    const int fanout = 1 + static_cast<int>(rng.next_below(4));
    const int b = 8;
    std::vector<MultiwaySpec> specs(n);
    for (int v = 0; v < n; ++v) {
      specs[v].active = true;
      specs[v].counts.resize(fanout);
      int nonzero = 0;
      for (int g = 0; g < fanout; ++g) {
        specs[v].counts[g] = static_cast<int>(rng.next_below(4));
        nonzero += specs[v].counts[g] > 0;
      }
      if (nonzero == 0) specs[v].counts[0] = 1;
      specs[v].keys.resize(fanout);
      for (int g = 0; g < fanout; ++g) specs[v].keys[g] = static_cast<std::uint64_t>(g);
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    const auto conflict = ring(n);
    int segs = 0;
    auto res = segment_derand_step(specs, conflict, /*w=*/3, b, /*lambda=*/2,
                                   [&] { ++segs; });
    EXPECT_EQ(segs, res.segments_fixed);
    EXPECT_EQ(segs, b * 2);  // (w+1)/lambda = 2 segments per chunk

    for (int v = 0; v < n; ++v) {
      ASSERT_GE(res.selected[v], 0);
      ASSERT_LT(res.selected[v], fanout);
      EXPECT_GT(specs[v].counts[res.selected[v]], 0) << "trial " << trial;
    }
    EXPECT_LE(static_cast<double>(keyed_potential(specs, conflict, b, res.selected)),
              static_cast<double>(keyed_potential(specs, conflict, b)) + 1e-9)
        << "trial " << trial;
  }
}

// Lemma 4.2's shape: every subrange is one color of a random sorted list
// (unit counts), so neighbors' subrange indices say nothing about a
// clash; the keyed potential must still not exceed its expectation.
TEST(SegmentDerand, ColorKeyedListsBeatExpectation) {
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8;
    const int b = 8;
    std::vector<MultiwaySpec> specs(n);
    for (int v = 0; v < n; ++v) {
      specs[v].active = true;
      // A random nonempty subset of the colors [0, 6), ascending.
      for (std::uint64_t c = 0; c < 6; ++c) {
        if (rng.next_below(2) == 0) specs[v].keys.push_back(c);
      }
      if (specs[v].keys.empty()) specs[v].keys.push_back(rng.next_below(6));
      specs[v].counts.assign(specs[v].keys.size(), 1);
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    const auto conflict = ring(n);
    auto res = segment_derand_step(specs, conflict, /*w=*/3, b, /*lambda=*/2, [] {});
    for (int v = 0; v < n; ++v) {
      ASSERT_GE(res.selected[v], 0);
      ASSERT_LT(res.selected[v], static_cast<int>(specs[v].keys.size()));
    }
    EXPECT_LE(static_cast<double>(keyed_potential(specs, conflict, b, res.selected)),
              static_cast<double>(keyed_potential(specs, conflict, b)) + 1e-9)
        << "trial " << trial;
  }
}

TEST(SegmentDerand, InactiveNodesIgnored) {
  const int b = 6;
  std::vector<MultiwaySpec> specs(3);
  for (int v = 0; v < 3; ++v) {
    specs[v].active = v != 1;
    specs[v].counts = {1, 1};
    specs[v].keys = {0, 1};
    specs[v].bounds = multiway_bounds(specs[v].counts, b);
  }
  std::vector<std::vector<NodeId>> conflict(3);
  conflict[0] = {2};
  conflict[2] = {0};
  auto res = segment_derand_step(specs, conflict, 2, b, 3, [] {});
  EXPECT_EQ(res.selected[1], -1);
  EXPECT_GE(res.selected[0], 0);
  EXPECT_GE(res.selected[2], 0);
}

// Two single-color subranges per node on one edge, keyed by color. Each
// shared color clashes with probability 1/4 per direction (weight 1), and
// a realized clash costs 2, so with `expectation` < 2 the derandomized
// step (result <= expectation) must avoid every clash.
std::vector<int> select_pair(const std::vector<std::uint64_t>& keys0,
                             const std::vector<std::uint64_t>& keys1, long double expectation) {
  const int b = 8;
  std::vector<MultiwaySpec> specs(2);
  specs[0].keys = keys0;
  specs[1].keys = keys1;
  for (MultiwaySpec& s : specs) {
    s.active = true;
    s.counts = {1, 1};
    s.bounds = multiway_bounds(s.counts, b);
  }
  const std::vector<std::vector<NodeId>> conflict = {{1}, {0}};
  const auto res = segment_derand_step(specs, conflict, 1, b, 2, [] {});
  EXPECT_EQ(keyed_potential(specs, conflict, b), expectation);
  return res.selected;
}

// The same two colors on both nodes: equal keys sit at equal indices, so
// the nodes must select different entries.
TEST(SegmentDerand, EdgePairObjectiveAvoidsMatchingColors) {
  const auto sel = select_pair({4, 9}, {4, 9}, 1.0L);
  EXPECT_NE(sel[0], sel[1]);
}

// Keys {3, 7} against {7, 9}, in both orientations: the shared color 7
// sits at different indices on the two nodes. Matching by color must keep
// them off 7 together; matching by index would instead forbid equal
// indices, and a tie could then land both on 7.
TEST(SegmentDerand, KeysMatchByColorNotIndex) {
  const auto sel = select_pair({3, 7}, {7, 9}, 0.5L);
  EXPECT_FALSE(sel[0] == 1 && sel[1] == 0);
  const auto mirrored = select_pair({7, 9}, {3, 7}, 0.5L);
  EXPECT_FALSE(mirrored[0] == 0 && mirrored[1] == 1);
}

}  // namespace
}  // namespace dcolor
