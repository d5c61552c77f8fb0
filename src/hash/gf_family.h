// Paper-exact pairwise-independent coin family over GF(2^m) (Lemma 2.5).
//
// Seed = (a, c) in GF(2^m)^2, laid out as 2m bits: bits [0, m) are a
// (LSB-first), bits [m, 2m) are c. The hash value of input color x is
// h(x) = a*x + c in GF(2^m), truncated to its low b bits; the coin is
// C = 1 iff trunc_b(h(x)) < tau.
//
// Conditional probabilities given partially fixed seed bits are computed
// exactly: every output bit of h(x) is an affine GF(2) form in the seed
// bits, so threshold events decompose into prefix-equality branches whose
// solution counts come from Gaussian elimination (src/gf2/linalg.h).
#pragma once

#include "src/gf2/gf2m.h"
#include "src/gf2/linalg.h"
#include "src/hash/coin_family.h"

namespace dcolor {

class GFCoinFamily final : public CoinFamily {
 public:
  // m = max(ceil(log2 K), b). Throws std::invalid_argument unless b and m
  // are in [1, 32].
  GFCoinFamily(std::uint64_t num_input_colors, int b);

  int seed_length() const override { return 2 * m_; }
  int precision_bits() const override { return b_; }
  std::string description() const override;

  long double prob_one(const CoinSpec& v, std::span<const std::uint8_t> fixed) const override;
  JointDist pair_dist(const CoinSpec& u, const CoinSpec& v,
                      std::span<const std::uint8_t> fixed) const override;
  int coin(const CoinSpec& v, std::span<const std::uint8_t> seed) const override;

 private:
  // Affine forms (width b, MSB-first) of the truncated hash output for
  // input color x, with the given fixed seed bits substituted in.
  AffineWord output_forms(std::uint64_t x, std::span<const std::uint8_t> fixed) const;

  int m_;
  int b_;
  GF2m field_;
};

}  // namespace dcolor
