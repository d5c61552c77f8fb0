// The fast incremental engine must agree exactly (==) with the generic
// CoinFamily-backed engine on every query along arbitrary seed-fixing
// paths for b <= 32 (within 1e-12 above, where both round), and exactly
// with itself across the two-candidate call, the batched integer
// diagonal query and padding with non-participating nodes.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <span>
#include <vector>

#include "src/coloring/pair_prob.h"
#include "src/hash/bitwise_family.h"
#include "src/util/rng.h"

namespace dcolor {
namespace {

// Trials 0..19 draw b in [2, 7]; the last four take b = 31, 32 (the
// widest exact long-double cases, on each numerator type) and b = 33, 40,
// where both engines round and are held to 1e-12 instead.
TEST(FastBitwiseEngine, MatchesGenericOnRandomInstances) {
  Rng rng(2024);
  const std::array<int, 4> wide_b = {31, 32, 33, 40};
  for (int trial = 0; trial < 24; ++trial) {
    const std::uint64_t K = 4 + rng.next_below(60);
    const int b = trial < 20 ? 2 + static_cast<int>(rng.next_below(6)) : wide_b[trial - 20];
    auto family = make_bitwise_coin_family(K, b);
    auto generic = make_generic_pair_prob(*family);
    auto fast = make_fast_bitwise_pair_prob(K, b);

    const int n = 6;
    std::vector<CoinSpec> specs(n);
    const std::uint64_t full = std::uint64_t{1} << b;
    for (int v = 0; v < n; ++v) {
      // Distinct input colors (adjacent nodes are properly colored).
      specs[v].input_color = static_cast<std::uint64_t>(v) % K;
      specs[v].threshold = rng.next_below(full + 1);
    }
    // Include forced coins sometimes.
    if (trial % 3 == 0) specs[0].threshold = 0;
    if (trial % 4 == 0) specs[1].threshold = full;

    std::vector<ConflictEdge> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (specs[u].input_color != specs[v].input_color) {
          edges.push_back(ConflictEdge{u, v});
        }
      }
    }
    generic->begin_phase(specs, edges);
    fast->begin_phase(specs, edges);
    ASSERT_EQ(generic->num_seed_bits(), fast->num_seed_bits());

    const int d = generic->num_seed_bits();
    for (int j = 0; j < d; ++j) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        for (int cand = 0; cand < 2; ++cand) {
          const JointDist a = generic->edge_joint(static_cast<int>(e), cand);
          const JointDist f = fast->edge_joint(static_cast<int>(e), cand);
          if (b <= 32) {
            ASSERT_EQ(a, f) << "trial=" << trial << " b=" << b << " j=" << j << " e=" << e
                            << " cand=" << cand;
            continue;
          }
          for (int x = 0; x < 2; ++x) {
            for (int y = 0; y < 2; ++y) {
              ASSERT_NEAR(static_cast<double>(a[x][y]), static_cast<double>(f[x][y]), 1e-12)
                  << "trial=" << trial << " b=" << b << " j=" << j << " e=" << e
                  << " cand=" << cand;
            }
          }
        }
      }
      const int bit = static_cast<int>(rng.next_below(2));
      generic->fix_next_bit(bit);
      fast->fix_next_bit(bit);
    }
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(generic->coin(v), fast->coin(v)) << "trial=" << trial << " v=" << v;
    }
  }
}

// Joint distributions must be genuine probability distributions and
// consistent under conditioning: P(prefix+0)*0.5 + P(prefix+1)*0.5 == P(prefix).
TEST(FastBitwiseEngine, LawOfTotalProbabilityAlongPath) {
  const std::uint64_t K = 16;
  const int b = 4;
  auto fast = make_fast_bitwise_pair_prob(K, b);
  std::vector<CoinSpec> specs = {{3, 7}, {12, 11}};
  std::vector<ConflictEdge> edges = {{0, 1}};
  fast->begin_phase(specs, edges);

  Rng rng(7);
  for (int j = 0; j < fast->num_seed_bits(); ++j) {
    const JointDist j0 = fast->edge_joint(0, 0);
    const JointDist j1 = fast->edge_joint(0, 1);
    long double sum0 = 0, sum1 = 0;
    for (int x = 0; x < 2; ++x) {
      for (int y = 0; y < 2; ++y) {
        EXPECT_GE(static_cast<double>(j0[x][y]), -1e-15);
        EXPECT_GE(static_cast<double>(j1[x][y]), -1e-15);
        sum0 += j0[x][y];
        sum1 += j1[x][y];
      }
    }
    EXPECT_NEAR(static_cast<double>(sum0), 1.0, 1e-12);
    EXPECT_NEAR(static_cast<double>(sum1), 1.0, 1e-12);
    fast->fix_next_bit(static_cast<int>(rng.next_below(2)));
  }
}

// A random phase instance: n nodes with distinct input colors, random
// thresholds (forced ones included), all pairs as conflict edges.
struct Instance {
  std::vector<CoinSpec> specs;
  std::vector<ConflictEdge> edges;
};

Instance random_instance(Rng& rng, std::uint64_t K, int b, int n) {
  Instance inst;
  inst.specs.resize(n);
  const std::uint64_t full = std::uint64_t{1} << b;
  for (int v = 0; v < n; ++v) {
    inst.specs[v].input_color = static_cast<std::uint64_t>(v) % K;
    inst.specs[v].threshold = rng.next_below(full + 1);
  }
  inst.specs[0].threshold = 0;
  inst.specs[1].threshold = full;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) inst.edges.push_back(ConflictEdge{u, v});
  }
  return inst;
}

// The two-candidate call is, exactly, the two single-candidate calls.
TEST(PairProbEngine, EdgeJointsEqualsTwoEdgeJointCalls) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t K = 8 + rng.next_below(60);
    const int b = 2 + static_cast<int>(rng.next_below(6));
    auto family = make_bitwise_coin_family(K, b);
    std::array<std::unique_ptr<PairProbEngine>, 2> engines = {
        make_generic_pair_prob(*family), make_fast_bitwise_pair_prob(K, b)};
    const Instance inst = random_instance(rng, K, b, 7);
    for (auto& eng : engines) eng->begin_phase(inst.specs, inst.edges);

    const int d = engines[0]->num_seed_bits();
    for (int j = 0; j < d; ++j) {
      for (auto& eng : engines) {
        for (std::size_t e = 0; e < inst.edges.size(); ++e) {
          const std::array<JointDist, 2> both = eng->edge_joints(static_cast<int>(e));
          ASSERT_EQ(both[0], eng->edge_joint(static_cast<int>(e), 0))
              << "trial=" << trial << " j=" << j << " e=" << e;
          ASSERT_EQ(both[1], eng->edge_joint(static_cast<int>(e), 1))
              << "trial=" << trial << " j=" << j << " e=" << e;
        }
      }
      const int bit = static_cast<int>(rng.next_below(2));
      for (auto& eng : engines) eng->fix_next_bit(bit);
    }
  }
}

// The batched diagonal query is, exactly, the matching edge_joints
// entries: at every seed bit along random fixing paths, for the edges
// dependent_edges() lists, numerator * 2^-2b == the entry. Both engines at
// b in [2, 7], 31 and 32; the fast engine alone at b in [33, 40], where
// the generic engine's long double entries round but the fast engine's
// entry and its lifted numerator round the same integer once. Every
// trial checks the 128-bit form, and the 64-bit one where 2^(2b) fits it
// (b <= 31). Slots of unlisted edges keep their sentinel.
template <typename Out>
void expect_diagonals_equal_joints(PairProbEngine& eng, int b, int m, int trial, int j,
                                   int* checked) {
  const std::span<const int> dependent = eng.dependent_edges();
  const Out ones = ~Out{0};
  const std::array<Out, 4> sentinel = {ones, ones, ones, ones};
  std::vector<std::array<Out, 4>> diag(m, sentinel);
  eng.edge_diagonals(dependent, diag.data());
  std::vector<char> listed(m, 0);
  for (const int e : dependent) listed[e] = 1;
  for (int e = 0; e < m; ++e) {
    if (!listed[e]) {
      ASSERT_TRUE(diag[e] == sentinel) << "unlisted edge written: trial=" << trial << " e=" << e;
      continue;
    }
    const auto [J0, J1] = eng.edge_joints(e);
    const std::array<long double, 4> want = {J0[0][0], J0[1][1], J1[0][0], J1[1][1]};
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(std::ldexp(static_cast<long double>(diag[e][i]), -2 * b), want[i])
          << "trial=" << trial << " b=" << b << " bits=" << 8 * sizeof(Out) << " j=" << j
          << " e=" << e << " i=" << i;
    }
    ++*checked;
  }
}

TEST(PairProbEngine, EdgeDiagonalsEqualEdgeJoints) {
  Rng rng(3131);
  int checked = 0;
  for (int trial = 0; trial < 28; ++trial) {
    const std::uint64_t K = 8 + rng.next_below(60);
    const int b = trial >= 24       ? 31 + trial % 2
                  : trial % 4 == 3 ? 33 + static_cast<int>(rng.next_below(8))
                                   : 2 + static_cast<int>(rng.next_below(6));
    auto family = make_bitwise_coin_family(K, b);
    std::array<std::unique_ptr<PairProbEngine>, 2> engines = {
        make_generic_pair_prob(*family), make_fast_bitwise_pair_prob(K, b)};
    const Instance inst = random_instance(rng, K, b, 7);
    for (auto& eng : engines) eng->begin_phase(inst.specs, inst.edges);

    const int m = static_cast<int>(inst.edges.size());
    const int d = engines[0]->num_seed_bits();
    for (int j = 0; j < d; ++j) {
      for (auto& eng : engines) {
        if (b > 32 && eng == engines[0]) continue;  // generic: exact only up to b = 32
        expect_diagonals_equal_joints<unsigned __int128>(*eng, b, m, trial, j, &checked);
        if (b <= 31) expect_diagonals_equal_joints<std::uint64_t>(*eng, b, m, trial, j, &checked);
        if (HasFatalFailure()) return;
      }
      const int bit = static_cast<int>(rng.next_below(2));
      for (auto& eng : engines) eng->fix_next_bit(bit);
    }
  }
  EXPECT_GT(checked, 0);
}

// The factory accepts exactly the precisions its numerator types hold:
// b in [1, 63].
TEST(FastBitwiseEngine, FactoryRejectsPrecisionOutsideOneToSixtyThree) {
  EXPECT_THROW(make_fast_bitwise_pair_prob(16, 0), std::invalid_argument);
  EXPECT_THROW(make_fast_bitwise_pair_prob(16, -3), std::invalid_argument);
  try {
    make_fast_bitwise_pair_prob(16, 64);
    FAIL() << "b = 64 accepted";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("b = 64"), std::string::npos) << err.what();
  }
  for (const int b : {1, 31, 32, 63}) {
    EXPECT_NO_THROW(make_fast_bitwise_pair_prob(16, b)) << "b=" << b;
  }
}

// An equal-color edge is rejected, naming it: edge 0 = {0, 1} of
// `pairs` joins two nodes of one input color.
void expect_equal_colors_rejected(std::uint64_t K, int b, const std::vector<CoinSpec>& specs,
                                  const std::vector<ConflictEdge>& pairs) {
  auto fast = make_fast_bitwise_pair_prob(K, b);
  try {
    fast->begin_phase(specs, pairs);
    FAIL() << "equal input colors accepted: K=" << K << " b=" << b;
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("{0, 1}"), std::string::npos) << err.what();
  }
}

// dependent_edges() is sound: at every seed bit j > 0, an unlisted edge's
// two candidates' joints are equal (==) to each other and to its joint
// at bit j - 1 for the bit fixed there, so the caller may carry that side
// forward. Every edge's two joints also average to that joint, the law
// the carry rests on. Covers forced (0, 2^b) and free thresholds and w = 1..12 (K =
// 2..4096) on both engines, over the edges whose endpoints' input colors
// differ; the fast engine rejects an edge whose colors are equal.
TEST(PairProbEngine, DependentEdgesIsSound) {
  Rng rng(1414);
  int quiet_checks = 0;
  for (int w = 1; w <= 12; ++w) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::uint64_t lo = (std::uint64_t{1} << (w - 1)) + 1;
      const std::uint64_t K = w == 1 ? 2 : lo + rng.next_below((std::uint64_t{1} << w) - lo + 1);
      const int b = 1 + static_cast<int>(rng.next_below(7));
      const std::uint64_t full = std::uint64_t{1} << b;
      auto family = make_bitwise_coin_family(K, b);

      const int n = 8;
      std::vector<CoinSpec> specs(n);
      for (int v = 0; v < n; ++v) {
        specs[v].input_color = rng.next_below(K);
        const std::uint64_t kind = rng.next_below(4);
        specs[v].threshold = kind == 0 ? 0 : kind == 1 ? full : 1 + rng.next_below(full - 1);
      }
      specs[1].input_color = specs[0].input_color;  // edge {0, 1} has xor 0
      std::vector<ConflictEdge> all_pairs;
      std::vector<ConflictEdge> distinct_pairs;
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          all_pairs.push_back(ConflictEdge{u, v});
          if (specs[u].input_color != specs[v].input_color) {
            distinct_pairs.push_back(ConflictEdge{u, v});
          }
        }
      }
      expect_equal_colors_rejected(K, b, specs, all_pairs);

      struct Side {
        std::unique_ptr<PairProbEngine> eng;
        bool lists_all;
        std::vector<std::array<JointDist, 2>> prev;
      };
      std::array<Side, 2> sides = {Side{make_generic_pair_prob(*family), true, {}},
                                   Side{make_fast_bitwise_pair_prob(K, b), false, {}}};
      for (Side& side : sides) side.eng->begin_phase(specs, distinct_pairs);

      const int m = static_cast<int>(distinct_pairs.size());
      const int d = sides[0].eng->num_seed_bits();
      int fixed = 0;  // the bit fixed at j - 1
      for (int j = 0; j < d; ++j) {
        for (Side& side : sides) {
          const std::span<const int> listed = side.eng->dependent_edges();
          std::vector<char> in(m, 0);
          for (const int e : listed) {
            ASSERT_TRUE(e >= 0 && e < m) << "e=" << e;
            ASSERT_FALSE(in[e]) << "edge " << e << " listed twice";
            in[e] = 1;
          }
          if (j == 0 || side.lists_all) {
            ASSERT_EQ(static_cast<int>(listed.size()), m) << "every edge, j=" << j;
          }
          std::vector<std::array<JointDist, 2>> cur(m);
          for (int e = 0; e < m; ++e) {
            cur[e] = side.eng->edge_joints(e);
            if (j == 0) continue;
            const std::string where = "K=" + std::to_string(K) + " b=" + std::to_string(b) +
                                      " trial=" + std::to_string(trial) +
                                      " j=" + std::to_string(j) + " e=" + std::to_string(e);
            // The premise: the next bit is uniform, so the fixed side's
            // joint is the mean of the two candidates' (exact at b <= 7).
            for (int x = 0; x < 2; ++x) {
              for (int y = 0; y < 2; ++y) {
                ASSERT_EQ((cur[e][0][x][y] + cur[e][1][x][y]) / 2, side.prev[e][fixed][x][y])
                    << "not the conditional law: " << where;
              }
            }
            if (!in[e]) {
              ++quiet_checks;
              ASSERT_EQ(cur[e][0], cur[e][1]) << "unlisted edge depends on the candidate: "
                                              << where;
              ASSERT_EQ(cur[e][0], side.prev[e][fixed])
                  << "unlisted edge is not the carried side: " << where;
            }
          }
          side.prev = std::move(cur);
        }
        fixed = static_cast<int>(rng.next_below(2));
        for (Side& side : sides) side.eng->fix_next_bit(fixed);
      }
    }
  }
  EXPECT_GT(quiet_checks, 0);
}

// decided() is sound: once it holds it stays true, and the coins read at
// that bit are final: the same after fixing every remaining bit with all
// 0s, all 1s or random bits, on the fast engine and on the generic
// engine's direct hash of the whole seed. The generic engine never
// claims decided(). Covers forced (0, 2^b) and free thresholds and w =
// 1..12, over the edges whose endpoints' input colors differ; the fast
// engine rejects an edge whose colors are equal.
TEST(FastBitwiseEngine, DecidedFreezesCoins) {
  Rng rng(1515);
  int early = 0;  // instances decided before their last bit
  for (int w = 1; w <= 12; ++w) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::uint64_t lo = (std::uint64_t{1} << (w - 1)) + 1;
      const std::uint64_t K = w == 1 ? 2 : lo + rng.next_below((std::uint64_t{1} << w) - lo + 1);
      const int b = 1 + static_cast<int>(rng.next_below(7));
      const std::uint64_t full = std::uint64_t{1} << b;
      auto family = make_bitwise_coin_family(K, b);

      const int n = 8;
      std::vector<CoinSpec> specs(n);
      for (int v = 0; v < n; ++v) {
        specs[v].input_color = rng.next_below(K);
        const std::uint64_t kind = rng.next_below(4);
        specs[v].threshold = kind == 0 ? 0 : kind == 1 ? full : 1 + rng.next_below(full - 1);
      }
      specs[1].input_color = specs[0].input_color;  // edge {0, 1} has xor 0
      std::vector<ConflictEdge> all_pairs;
      std::vector<ConflictEdge> distinct_pairs;
      for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) {
          all_pairs.push_back(ConflictEdge{u, v});
          if (specs[u].input_color != specs[v].input_color) {
            distinct_pairs.push_back(ConflictEdge{u, v});
          }
        }
      }
      expect_equal_colors_rejected(K, b, specs, all_pairs);
      const std::string where = "K=" + std::to_string(K) + " b=" + std::to_string(b) +
                                " trial=" + std::to_string(trial);

      auto fast = make_fast_bitwise_pair_prob(K, b);
      fast->begin_phase(specs, distinct_pairs);
      const int d = fast->num_seed_bits();
      std::vector<int> seed;
      int decided_at = -1;  // the first bit at which decided() held
      std::vector<int> frozen(n);
      for (int j = 0; j < d; ++j) {
        if (fast->decided()) {
          if (decided_at < 0) {
            decided_at = j;
            for (int v = 0; v < n; ++v) frozen[v] = fast->coin(v);
          }
        } else {
          ASSERT_LT(decided_at, 0) << where << ": decided() turned false at j=" << j;
        }
        seed.push_back(static_cast<int>(rng.next_below(2)));
        fast->fix_next_bit(seed.back());
      }
      if (decided_at < 0) continue;
      ++early;
      for (int v = 0; v < n; ++v) ASSERT_EQ(fast->coin(v), frozen[v]) << where << " v=" << v;

      for (const int suffix : {0, 1, 2}) {  // all 0s, all 1s, random
        for (int j = decided_at; j < d; ++j) {
          seed[j] = suffix < 2 ? suffix : static_cast<int>(rng.next_below(2));
        }
        auto replay = make_fast_bitwise_pair_prob(K, b);
        auto reference = make_generic_pair_prob(*family);
        replay->begin_phase(specs, distinct_pairs);
        reference->begin_phase(specs, {});
        for (const int bit : seed) {
          ASSERT_FALSE(reference->decided()) << where;
          replay->fix_next_bit(bit);
          reference->fix_next_bit(bit);
        }
        for (int v = 0; v < n; ++v) {
          EXPECT_EQ(replay->coin(v), frozen[v])
              << where << " decided at j=" << decided_at << " suffix=" << suffix << " v=" << v;
          EXPECT_EQ(reference->coin(v), frozen[v])
              << where << " decided at j=" << decided_at << " suffix=" << suffix << " v=" << v;
        }
      }
    }
  }
  EXPECT_GT(early, 0);
}

// Nodes that take no part in the conflict graph (threshold 0, threshold
// 2^b, or on no edge) must not change a single bit of the fast engine's
// answers for the nodes that do: the padded instance gives exactly the
// compact instance's joints and coins.
TEST(FastBitwiseEngine, PaddingWithNonParticipatingNodesIsExact) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t K = 8 + rng.next_below(60);
    const int b = 2 + static_cast<int>(rng.next_below(6));
    const std::uint64_t full = std::uint64_t{1} << b;
    const Instance compact = random_instance(rng, K, b, 6);
    const int n = static_cast<int>(compact.specs.size());

    // Interleave pad nodes before, between and after the compact nodes;
    // pos[v] is compact node v's id in the padded instance (ascending, so
    // every edge keeps u < v and its index).
    const std::vector<CoinSpec> pads = {
        {0, 0},                     // inactive node
        {rng.next_below(K), 0},     // threshold 0
        {rng.next_below(K), full},  // threshold 2^b
        {rng.next_below(K), full},  // isolated active node, forced coin 1
        // isolated active node, free coin
        {rng.next_below(K), 1 + rng.next_below(full - 1)},
    };
    Instance padded;
    std::vector<NodeId> pos(n);
    std::vector<NodeId> pad_ids;
    std::size_t next_pad = 0;
    for (int v = 0; v < n; ++v) {
      if (v % 2 == 0 && next_pad < pads.size()) {
        pad_ids.push_back(static_cast<NodeId>(padded.specs.size()));
        padded.specs.push_back(pads[next_pad++]);
      }
      pos[v] = static_cast<NodeId>(padded.specs.size());
      padded.specs.push_back(compact.specs[v]);
    }
    while (next_pad < pads.size()) {
      pad_ids.push_back(static_cast<NodeId>(padded.specs.size()));
      padded.specs.push_back(pads[next_pad++]);
    }
    for (const ConflictEdge& e : compact.edges) {
      padded.edges.push_back(ConflictEdge{pos[e.u], pos[e.v]});
    }

    auto small = make_fast_bitwise_pair_prob(K, b);
    auto big = make_fast_bitwise_pair_prob(K, b);
    auto family = make_bitwise_coin_family(K, b);
    auto reference = make_generic_pair_prob(*family);
    small->begin_phase(compact.specs, compact.edges);
    big->begin_phase(padded.specs, padded.edges);
    reference->begin_phase(padded.specs, padded.edges);

    const int d = small->num_seed_bits();
    for (int j = 0; j < d; ++j) {
      for (std::size_t e = 0; e < compact.edges.size(); ++e) {
        ASSERT_EQ(small->edge_joints(static_cast<int>(e)), big->edge_joints(static_cast<int>(e)))
            << "trial=" << trial << " j=" << j << " e=" << e;
      }
      const int bit = static_cast<int>(rng.next_below(2));
      small->fix_next_bit(bit);
      big->fix_next_bit(bit);
      reference->fix_next_bit(bit);
    }
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(small->coin(v), big->coin(pos[v])) << "trial=" << trial << " v=" << v;
    }
    // Pad coins: forced ones read their threshold, the free isolated one
    // its hash value; the generic engine evaluates the hash directly.
    for (NodeId p : pad_ids) {
      EXPECT_EQ(big->coin(p), reference->coin(p)) << "trial=" << trial << " pad=" << p;
    }
    EXPECT_EQ(big->coin(pad_ids[0]), 0);
    EXPECT_EQ(big->coin(pad_ids[3]), 1);
  }
}

}  // namespace
}  // namespace dcolor
