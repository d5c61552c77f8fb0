// Per-output-bit inner-product coin family.
//
// Output digit t (t = 0..b-1, MSB first) of the hash of input color x is
//   u_t(x) = <a_t, bits(x)> ^ c_t
// with an independent seed chunk (a_t, c_t) in {0,1}^w x {0,1}, w =
// ceil(log K). For two distinct colors x != y the pair (u_t(x), u_t(y)) is
// uniform on {0,1}^2 (x^y has a nonzero bit, so <a_t, x^y> is a fresh
// uniform bit, and c_t decouples the marginal), and digits are independent
// across t. Hence (h(x), h(y)) is uniform on [2^b]^2: exact pairwise
// independence, as required by Lemmas 2.2/2.3/2.5.
//
// Seed length b*(w+1) — longer than the GF family by a log K factor, but
// conditional distributions given partially fixed seeds cost only O(b):
// within chunk t the pair of digit forms is affine in <= w+1 variables, so
// its conditional joint distribution is one of four closed-form cases, and
// a 4-state digit DP composes the chunks (they are independent).
#pragma once

#include "src/hash/coin_family.h"

namespace dcolor {

class BitwiseCoinFamily final : public CoinFamily {
 public:
  // Throws std::invalid_argument unless b is in [1, 40].
  BitwiseCoinFamily(std::uint64_t num_input_colors, int b);

  int seed_length() const override { return b_ * (w_ + 1); }
  int precision_bits() const override { return b_; }
  std::string description() const override;

  long double prob_one(const CoinSpec& v, std::span<const std::uint8_t> fixed) const override;
  JointDist pair_dist(const CoinSpec& u, const CoinSpec& v,
                      std::span<const std::uint8_t> fixed) const override;
  int coin(const CoinSpec& v, std::span<const std::uint8_t> seed) const override;

 private:
  // Joint distribution q[x][y] of digit t of colors cu, cv given the fixed
  // seed prefix. Exact dyadic rationals (denominator 1, 2 or 4).
  JointDist digit_joint(int t, std::uint64_t cu, std::uint64_t cv,
                        std::span<const std::uint8_t> fixed) const;
  // Marginal distribution of digit t of color c: returns Pr[digit = 1].
  long double digit_one(int t, std::uint64_t c, std::span<const std::uint8_t> fixed) const;

  int w_;  // bits per input color
  int b_;
};

}  // namespace dcolor
