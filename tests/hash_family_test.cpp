// Exhaustive validation of both coin families against the definitions of
// Lemma 2.5: marginal bias, exact 0/1 extremes, pairwise independence and
// exactness of conditional probabilities. Seeds are small enough here to
// enumerate completely.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/coloring/partial_coloring.h"
#include "src/hash/bitwise_family.h"
#include "src/hash/coin_family.h"
#include "src/hash/gf_family.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

using test::seed_bits;

struct FamilyCase {
  CoinFamilyKind kind;
  std::uint64_t K;
  int b;
};

class CoinFamilyTest : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(CoinFamilyTest, MarginalBiasExactOverAllSeeds) {
  const auto [kind, K, b] = GetParam();
  auto fam = make_coin_family(kind, K, b);
  const int d = fam->seed_length();
  ASSERT_LE(d, 22) << "test requires enumerable seed space";
  const std::uint64_t num_seeds = std::uint64_t{1} << d;
  const std::uint64_t full = std::uint64_t{1} << b;

  for (std::uint64_t color = 0; color < K; ++color) {
    for (std::uint64_t tau : {std::uint64_t{0}, std::uint64_t{1}, full / 2, full - 1, full}) {
      const CoinSpec spec{color, tau};
      std::uint64_t ones = 0;
      for (std::uint64_t s = 0; s < num_seeds; ++s) {
        ones += fam->coin(spec, seed_bits(s, d));
      }
      // Pr[C=1] must be exactly tau/2^b (Lemma 2.5: the hash value is
      // uniform in [2^b]).
      EXPECT_EQ(ones * full, tau * num_seeds) << fam->description() << " color=" << color
                                              << " tau=" << tau;
    }
  }
}

TEST_P(CoinFamilyTest, PairwiseIndependenceOverAllSeeds) {
  const auto [kind, K, b] = GetParam();
  auto fam = make_coin_family(kind, K, b);
  const int d = fam->seed_length();
  ASSERT_LE(d, 22);
  const std::uint64_t num_seeds = std::uint64_t{1} << d;
  const std::uint64_t full = std::uint64_t{1} << b;

  // Distinct colors: joint coin distribution must factor exactly.
  const CoinSpec u{0, full / 2};
  const CoinSpec v{1, (3 * full) / 4};
  std::uint64_t count[2][2] = {{0, 0}, {0, 0}};
  for (std::uint64_t s = 0; s < num_seeds; ++s) {
    const auto bits = seed_bits(s, d);
    ++count[fam->coin(u, bits)][fam->coin(v, bits)];
  }
  for (int cu = 0; cu < 2; ++cu) {
    for (int cv = 0; cv < 2; ++cv) {
      const std::uint64_t mu = count[cu][0] + count[cu][1];
      const std::uint64_t mv = count[0][cv] + count[1][cv];
      // count/num = (mu/num)*(mv/num)  <=>  count*num == mu*mv
      EXPECT_EQ(count[cu][cv] * num_seeds, mu * mv)
          << fam->description() << " cu=" << cu << " cv=" << cv;
    }
  }
}

TEST_P(CoinFamilyTest, ConditionalProbMatchesBruteForce) {
  const auto [kind, K, b] = GetParam();
  auto fam = make_coin_family(kind, K, b);
  const int d = fam->seed_length();
  ASSERT_LE(d, 22);
  const std::uint64_t full = std::uint64_t{1} << b;

  const CoinSpec u{0, full / 3 + 1};
  const CoinSpec v{K - 1, full - full / 5};
  // Walk a fixed prefix path; at each length check prob_one and pair_dist
  // against enumeration of the remaining free bits.
  std::vector<std::uint8_t> prefix;
  for (int len = 0; len <= d; ++len) {
    const int free = d - len;
    std::uint64_t n11 = 0, n1u = 0, n1v = 0;
    const std::uint64_t num_free = std::uint64_t{1} << free;
    for (std::uint64_t sfree = 0; sfree < num_free; ++sfree) {
      std::vector<std::uint8_t> bits = prefix;
      for (int i = 0; i < free; ++i) bits.push_back(static_cast<std::uint8_t>(sfree >> i & 1));
      const int cu = fam->coin(u, bits);
      const int cv = fam->coin(v, bits);
      n1u += cu;
      n1v += cv;
      n11 += cu & cv;
    }
    const long double pu = fam->prob_one(u, prefix);
    const long double pv = fam->prob_one(v, prefix);
    const JointDist J = fam->pair_dist(u, v, prefix);
    EXPECT_NEAR(static_cast<double>(pu), static_cast<double>(n1u) / num_free, 1e-12);
    EXPECT_NEAR(static_cast<double>(pv), static_cast<double>(n1v) / num_free, 1e-12);
    EXPECT_NEAR(static_cast<double>(J[1][1]), static_cast<double>(n11) / num_free, 1e-12);
    EXPECT_NEAR(static_cast<double>(J[0][0]),
                static_cast<double>(num_free - n1u - n1v + n11) / num_free, 1e-12);
    if (len < d) prefix.push_back(static_cast<std::uint8_t>((len * 7 + 3) % 2));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CoinFamilyTest,
    ::testing::Values(FamilyCase{CoinFamilyKind::kGF, 8, 3},      // m = 3, seed 6
                      FamilyCase{CoinFamilyKind::kGF, 4, 5},      // m = 5, seed 10
                      FamilyCase{CoinFamilyKind::kGF, 16, 4},     // m = 4, seed 8
                      FamilyCase{CoinFamilyKind::kBitwise, 4, 3},  // seed 3*3=9
                      FamilyCase{CoinFamilyKind::kBitwise, 8, 4},  // seed 4*4=16
                      FamilyCase{CoinFamilyKind::kBitwise, 16, 4}  // seed 4*5=20
                      ));

TEST(Threshold, RoundingMatchesLemma25) {
  // tau/2^b must lie in [p, p + 2^-b], exactly p at the extremes.
  for (int b : {3, 8, 13}) {
    const std::uint64_t full = std::uint64_t{1} << b;
    for (std::uint64_t size = 1; size <= 20; ++size) {
      for (std::uint64_t k1 = 0; k1 <= size; ++k1) {
        const std::uint64_t tau = threshold_for(k1, size, b);
        const long double p = static_cast<long double>(k1) / size;
        const long double realized = static_cast<long double>(tau) / full;
        EXPECT_GE(realized, p - 1e-18L);
        EXPECT_LE(realized, p + 1.0L / full + 1e-18L);
        if (k1 == 0) {
          EXPECT_EQ(tau, 0u);
        }
        if (k1 == size) {
          EXPECT_EQ(tau, full);
        }
      }
    }
  }
}

TEST(GFFamily, SeedLengthMatchesTheorem24) {
  // 2 * max(log K, b) bits.
  EXPECT_EQ(make_gf_coin_family(256, 4)->seed_length(), 16);
  EXPECT_EQ(make_gf_coin_family(8, 10)->seed_length(), 20);
}

TEST(BitwiseFamily, SeedLengthIsBTimesWPlus1) {
  EXPECT_EQ(make_bitwise_coin_family(256, 4)->seed_length(), 4 * 9);
  EXPECT_EQ(make_bitwise_coin_family(8, 10)->seed_length(), 10 * 4);
}

// The thrown message names the rejected value.
void expect_invalid_argument(const std::function<void()>& make, const std::string& names) {
  try {
    make();
    ADD_FAILURE() << "accepted; expected a rejection naming " << names;
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find(names), std::string::npos) << err.what();
  }
}

TEST(GFFamily, FactoryRejectsPrecisionOrDegreeOutsideOneToThirtyTwo) {
  expect_invalid_argument([] { make_gf_coin_family(16, 0); }, "b = 0");
  expect_invalid_argument([] { make_gf_coin_family(16, -3); }, "b = -3");
  expect_invalid_argument([] { make_gf_coin_family(16, 33); }, "b = 33");
  // b fits, but 2^33 input colors need a field of degree 33.
  expect_invalid_argument([] { make_gf_coin_family(std::uint64_t{1} << 33, 4); }, "m = 33");
  // The Section-4 precision on a star with 5800 leaves and Delta+1 lists
  // (13 color bits) is such a b: the range check is reachable from
  // PartialColoringOptions{.family = kGF, .avoid_mis = true}.
  EXPECT_EQ(precision_bits_for(5800, 13, /*avoid_mis=*/true), 33);
  for (const int b : {1, 16, 32}) {
    EXPECT_NO_THROW(make_gf_coin_family(16, b)) << "b=" << b;
  }
  EXPECT_NO_THROW(make_gf_coin_family(std::uint64_t{1} << 32, 4));
}

TEST(BitwiseFamily, FactoryRejectsPrecisionOutsideOneToForty) {
  expect_invalid_argument([] { make_bitwise_coin_family(16, 0); }, "b = 0");
  expect_invalid_argument([] { make_bitwise_coin_family(16, -3); }, "b = -3");
  expect_invalid_argument([] { make_bitwise_coin_family(16, 41); }, "b = 41");
  for (const int b : {1, 20, 40}) {
    EXPECT_NO_THROW(make_bitwise_coin_family(16, b)) << "b=" << b;
  }
}

}  // namespace
}  // namespace dcolor
