#include "src/hash/gf_family.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/util/bits.h"

namespace dcolor {
namespace {

// The degree m of the field that holds both the input colors and b-bit
// outputs. Throws when b or m leaves [1, 32], the degrees GF2m supports.
int field_degree(std::uint64_t num_input_colors, int b) {
  if (b < 1 || b > 32) {
    throw std::invalid_argument("GFCoinFamily: precision b = " + std::to_string(b) +
                                " is outside [1, 32]");
  }
  const int m = std::max(ceil_log2(std::max<std::uint64_t>(num_input_colors, 2)), b);
  if (m > 32) {
    throw std::invalid_argument("GFCoinFamily: field degree m = " + std::to_string(m) + " for " +
                                std::to_string(num_input_colors) +
                                " input colors is outside [1, 32]");
  }
  return m;
}

}  // namespace

std::uint64_t threshold_for(std::uint64_t k1, std::uint64_t list_size, int b) {
  assert(list_size >= 1 && k1 <= list_size);
  // ceil(k1 * 2^b / list_size), exact in integers (values are small).
  const unsigned __int128 num = static_cast<unsigned __int128>(k1) << b;
  return static_cast<std::uint64_t>((num + list_size - 1) / list_size);
}

GFCoinFamily::GFCoinFamily(std::uint64_t num_input_colors, int b)
    : m_(field_degree(num_input_colors, b)), b_(b), field_(m_) {}

std::string GFCoinFamily::description() const {
  return "gf2m(m=" + std::to_string(m_) + ",b=" + std::to_string(b_) + ")";
}

AffineWord GFCoinFamily::output_forms(std::uint64_t x, std::span<const std::uint8_t> fixed) const {
  // Bit j of a*x is sum_i a_i * (x * X^i)_j; c contributes its own bit.
  std::uint64_t rows[64];
  field_.mul_matrix(x, rows);

  AffineWord w;
  w.width = b_;
  w.masks.resize(b_);
  w.consts = 0;
  for (int q = 0; q < b_; ++q) {
    const int out_bit = b_ - 1 - q;  // MSB-first ordering of the truncated value
    std::uint64_t mask = 0;
    for (int i = 0; i < m_; ++i) {
      if (rows[i] >> out_bit & 1) mask |= std::uint64_t{1} << i;  // seed var i = a_i
    }
    mask |= std::uint64_t{1} << (m_ + out_bit);  // seed var m+out_bit = c_{out_bit}
    w.masks[q] = mask;
  }
  for (std::size_t k = 0; k < fixed.size(); ++k) {
    w.substitute(static_cast<int>(k), fixed[k]);
  }
  return w;
}

long double GFCoinFamily::prob_one(const CoinSpec& v, std::span<const std::uint8_t> fixed) const {
  const std::uint64_t full = std::uint64_t{1} << b_;
  if (v.threshold == 0) return 0.0L;
  if (v.threshold >= full) return 1.0L;
  return prob_below(output_forms(v.input_color, fixed), v.threshold);
}

JointDist GFCoinFamily::pair_dist(const CoinSpec& u, const CoinSpec& v,
                                  std::span<const std::uint8_t> fixed) const {
  assert(u.input_color != v.input_color);
  const std::uint64_t full = std::uint64_t{1} << b_;

  long double pu;  // Pr[C_u=1 | fixed]
  long double pv;
  long double p11;
  const bool u_forced = (u.threshold == 0 || u.threshold >= full);
  const bool v_forced = (v.threshold == 0 || v.threshold >= full);
  pu = u_forced ? (u.threshold == 0 ? 0.0L : 1.0L) : prob_one(u, fixed);
  pv = v_forced ? (v.threshold == 0 ? 0.0L : 1.0L) : prob_one(v, fixed);
  if (u_forced || v_forced) {
    p11 = pu * pv;  // at least one factor is a constant 0/1, so this is exact
  } else {
    p11 = prob_below_pair(output_forms(u.input_color, fixed), u.threshold,
                          output_forms(v.input_color, fixed), v.threshold);
  }
  JointDist d;
  d[1][1] = p11;
  d[1][0] = pu - p11;
  d[0][1] = pv - p11;
  d[0][0] = 1.0L - pu - pv + p11;
  return d;
}

int GFCoinFamily::coin(const CoinSpec& v, std::span<const std::uint8_t> seed) const {
  assert(static_cast<int>(seed.size()) == seed_length());
  const std::uint64_t full = std::uint64_t{1} << b_;
  if (v.threshold == 0) return 0;
  if (v.threshold >= full) return 1;
  std::uint64_t a = 0;
  std::uint64_t c = 0;
  for (int i = 0; i < m_; ++i) {
    a |= static_cast<std::uint64_t>(seed[i] & 1) << i;
    c |= static_cast<std::uint64_t>(seed[m_ + i] & 1) << i;
  }
  const std::uint64_t h = field_.affine(a, v.input_color, c);
  const std::uint64_t trunc = h & (full - 1);
  return trunc < v.threshold ? 1 : 0;
}

std::unique_ptr<CoinFamily> make_gf_coin_family(std::uint64_t num_input_colors, int b) {
  return std::make_unique<GFCoinFamily>(num_input_colors, b);
}

std::unique_ptr<CoinFamily> make_coin_family(CoinFamilyKind kind, std::uint64_t num_input_colors,
                                             int b) {
  return kind == CoinFamilyKind::kGF ? make_gf_coin_family(num_input_colors, b)
                                     : make_bitwise_coin_family(num_input_colors, b);
}

}  // namespace dcolor
