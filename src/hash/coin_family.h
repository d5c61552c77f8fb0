// Pairwise-independent biased coins from a short shared seed (Lemma 2.5).
//
// Every node v needs a coin C_v with Pr[C_v = 1] ~= p_v such that coins of
// ADJACENT nodes are independent. The construction: a hash h_S maps v's
// input color psi(v) in [K] to a uniform b-bit value, pairwise
// independently across distinct colors; C_v := 1 iff h_S(psi(v)) < tau_v
// where tau_v = ceil(p_v * 2^b). Adjacent nodes have distinct input colors
// (the K-coloring is proper), hence independent coins.
//
// The derandomizer (Lemma 2.6) fixes the seed bit by bit and needs, for
// each conflict edge {u,v}, the EXACT joint conditional distribution of
// (C_u, C_v) given the already-fixed seed bits. CoinFamily abstracts the
// two constructions we provide:
//
//  * GFCoinFamily      — the paper-exact family h_{a,c}(x) = a*x + c over
//                        GF(2^m), m = max(log K, b); seed length 2m bits
//                        (Theorem 2.4). Conditioning costs O(b^2) small
//                        Gaussian eliminations per query.
//  * BitwiseCoinFamily — per-output-bit inner-product family; seed length
//                        b*(ceil(log K)+1) bits, conditioning in O(b).
//
// Both are exactly pairwise independent, so Lemmas 2.2/2.3 hold verbatim;
// they differ only in seed length. The bitwise family is this repository's
// substitution for the paper's GF(2^m) family: its b*(ceil(log K)+1)-bit
// seed is about min(b, log K)/2 times longer than the 2m bits of Theorem
// 2.4, and every seed bit costs one derandomization step, in exchange for
// O(1) conditioning per query (src/coloring/pair_prob.h).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dcolor {

// Per-node coin specification for one prefix-extension phase.
struct CoinSpec {
  std::uint64_t input_color = 0;  // psi(v) in [K]
  std::uint64_t threshold = 0;    // tau_v in [0, 2^b]; Pr[C_v=1] = tau_v / 2^b
};

// Joint distribution of a pair of coins; p[cu][cv].
using JointDist = std::array<std::array<long double, 2>, 2>;

// tau = ceil(p * 2^b) for p = k1/list_size, computed in exact integer
// arithmetic. Satisfies p <= tau/2^b <= p + 2^-b, with equality at p in
// {0,1} (the paper's rounding in Lemma 2.5).
std::uint64_t threshold_for(std::uint64_t k1, std::uint64_t list_size, int b);

class CoinFamily {
 public:
  virtual ~CoinFamily() = default;

  virtual int seed_length() const = 0;
  virtual int precision_bits() const = 0;  // b
  virtual std::string description() const = 0;

  // Pr[C_v = 1 | seed bits 0..|fixed|-1 equal `fixed`], remaining uniform.
  virtual long double prob_one(const CoinSpec& v, std::span<const std::uint8_t> fixed) const = 0;

  // Joint conditional distribution for two coins whose input colors MUST
  // differ (adjacent nodes of a properly colored graph).
  virtual JointDist pair_dist(const CoinSpec& u, const CoinSpec& v,
                              std::span<const std::uint8_t> fixed) const = 0;

  // Deterministic coin value under a fully fixed seed.
  virtual int coin(const CoinSpec& v, std::span<const std::uint8_t> seed) const = 0;
};

// Factory helpers. `num_input_colors` = K, `b` = coin precision bits.
std::unique_ptr<CoinFamily> make_gf_coin_family(std::uint64_t num_input_colors, int b);
std::unique_ptr<CoinFamily> make_bitwise_coin_family(std::uint64_t num_input_colors, int b);

enum class CoinFamilyKind { kGF, kBitwise };

std::unique_ptr<CoinFamily> make_coin_family(CoinFamilyKind kind, std::uint64_t num_input_colors,
                                             int b);

}  // namespace dcolor
