#include "src/hash/bitwise_family.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "src/util/bits.h"

namespace dcolor {
namespace {

// Digit form inside one chunk: value = parity(<mask, free_chunk_bits>) ^ k
// after substituting fixed bits. mask covers chunk-local variables.
struct DigitForm {
  std::uint64_t mask = 0;
  int constant = 0;
};

}  // namespace

BitwiseCoinFamily::BitwiseCoinFamily(std::uint64_t num_input_colors, int b)
    : w_(ceil_log2(std::max<std::uint64_t>(num_input_colors, 2))), b_(b) {
  if (b < 1 || b > 40) {
    throw std::invalid_argument("BitwiseCoinFamily: precision b = " + std::to_string(b) +
                                " is outside [1, 40]");
  }
}

std::string BitwiseCoinFamily::description() const {
  return "bitwise(w=" + std::to_string(w_) + ",b=" + std::to_string(b_) + ")";
}

// Builds the affine form of digit t of color c over the chunk-local seed
// variables [0, w_+1), substituting globally fixed seed bits. Chunk t owns
// global seed bits [t*(w_+1), (t+1)*(w_+1)): first w_ bits are a_t
// (a_t[i] pairs with bit i of the color), last bit is c_t.
static DigitForm make_form(int t, int w, std::uint64_t color,
                           std::span<const std::uint8_t> fixed) {
  DigitForm f;
  const int base = t * (w + 1);
  for (int i = 0; i < w; ++i) {
    if (!(color >> i & 1)) continue;
    const int global = base + i;
    if (global < static_cast<int>(fixed.size())) {
      f.constant ^= fixed[global] & 1;
    } else {
      f.mask |= std::uint64_t{1} << i;
    }
  }
  const int cbit = base + w;
  if (cbit < static_cast<int>(fixed.size())) {
    f.constant ^= fixed[cbit] & 1;
  } else {
    f.mask |= std::uint64_t{1} << w;
  }
  return f;
}

JointDist BitwiseCoinFamily::digit_joint(int t, std::uint64_t cu, std::uint64_t cv,
                                         std::span<const std::uint8_t> fixed) const {
  const DigitForm fu = make_form(t, w_, cu, fixed);
  const DigitForm fv = make_form(t, w_, cv, fixed);
  JointDist q{};
  if (fu.mask == 0 && fv.mask == 0) {
    q[fu.constant][fv.constant] = 1.0L;
  } else if (fu.mask == 0) {
    q[fu.constant][0] = 0.5L;
    q[fu.constant][1] = 0.5L;
  } else if (fv.mask == 0) {
    q[0][fv.constant] = 0.5L;
    q[1][fv.constant] = 0.5L;
  } else if (fu.mask == fv.mask) {
    // Digits differ by the fixed constant xor: perfectly correlated.
    const int delta = fu.constant ^ fv.constant;
    q[0][delta] = 0.5L;
    q[1][1 ^ delta] = 0.5L;
  } else {
    // Two distinct nonzero linear forms over uniform free bits: the pair
    // of parities is uniform on {0,1}^2 regardless of the constants.
    q[0][0] = q[0][1] = q[1][0] = q[1][1] = 0.25L;
  }
  return q;
}

long double BitwiseCoinFamily::digit_one(int t, std::uint64_t c,
                                         std::span<const std::uint8_t> fixed) const {
  const DigitForm f = make_form(t, w_, c, fixed);
  if (f.mask == 0) return static_cast<long double>(f.constant);
  return 0.5L;
}

long double BitwiseCoinFamily::prob_one(const CoinSpec& v,
                                        std::span<const std::uint8_t> fixed) const {
  const std::uint64_t full = std::uint64_t{1} << b_;
  if (v.threshold == 0) return 0.0L;
  if (v.threshold >= full) return 1.0L;
  // Digit DP for Pr[value < tau]: `tight` = probability the processed
  // prefix equals tau's prefix; `less` accumulates strict-less mass.
  long double tight = 1.0L;
  long double less = 0.0L;
  for (int t = 0; t < b_; ++t) {
    const int tau_t = static_cast<int>(v.threshold >> (b_ - 1 - t) & 1);
    const long double p1 = digit_one(t, v.input_color, fixed);
    const long double p0 = 1.0L - p1;
    if (tau_t == 1) {
      less += tight * p0;      // digit 0 < 1: strictly less from here on
      tight = tight * p1;      // digit 1 == 1: still tight
    } else {
      tight = tight * p0;      // digit must be 0 to stay tight; 1 => greater
    }
  }
  return less;  // equality at the end is NOT < tau
}

JointDist BitwiseCoinFamily::pair_dist(const CoinSpec& u, const CoinSpec& v,
                                       std::span<const std::uint8_t> fixed) const {
  assert(u.input_color != v.input_color);
  const std::uint64_t full = std::uint64_t{1} << b_;
  const bool u_forced = (u.threshold == 0 || u.threshold >= full);
  const bool v_forced = (v.threshold == 0 || v.threshold >= full);
  if (u_forced || v_forced) {
    const long double pu = u_forced ? (u.threshold ? 1.0L : 0.0L) : prob_one(u, fixed);
    const long double pv = v_forced ? (v.threshold ? 1.0L : 0.0L) : prob_one(v, fixed);
    JointDist d;
    d[1][1] = pu * pv;  // exact: one of the factors is a constant
    d[1][0] = pu - d[1][1];
    d[0][1] = pv - d[1][1];
    d[0][0] = 1.0L - pu - pv + d[1][1];
    return d;
  }

  // 4-state joint digit DP. States: both tight (A), u tight & v already
  // strictly less (B), u less & v tight (C), both less (D = the answer).
  long double A = 1.0L, B = 0.0L, C = 0.0L, D = 0.0L;
  for (int t = 0; t < b_; ++t) {
    const int tu = static_cast<int>(u.threshold >> (b_ - 1 - t) & 1);
    const int tv = static_cast<int>(v.threshold >> (b_ - 1 - t) & 1);
    const JointDist q = digit_joint(t, u.input_color, v.input_color, fixed);
    const long double qu1 = q[1][0] + q[1][1];  // marginal Pr[u digit = 1]
    const long double qv1 = q[0][1] + q[1][1];

    long double nA = 0, nB = 0, nC = 0, nD = D;
    // From A: u transitions via its digit vs tu; likewise v.
    nA += A * q[tu][tv];
    if (tv == 1) nB += A * q[tu][0];
    if (tu == 1) nC += A * q[0][tv];
    if (tu == 1 && tv == 1) nD += A * q[0][0];
    // From B: only u's digit matters (marginal).
    nB += B * (tu == 1 ? qu1 : (1.0L - qu1));
    if (tu == 1) nD += B * (1.0L - qu1);
    // From C: only v's digit matters.
    nC += C * (tv == 1 ? qv1 : (1.0L - qv1));
    if (tv == 1) nD += C * (1.0L - qv1);
    A = nA;
    B = nB;
    C = nC;
    D = nD;
  }
  const long double p11 = D;
  const long double pu = prob_one(u, fixed);
  const long double pv = prob_one(v, fixed);
  JointDist d;
  d[1][1] = p11;
  d[1][0] = pu - p11;
  d[0][1] = pv - p11;
  d[0][0] = 1.0L - pu - pv + p11;
  return d;
}

int BitwiseCoinFamily::coin(const CoinSpec& v, std::span<const std::uint8_t> seed) const {
  assert(static_cast<int>(seed.size()) == seed_length());
  const std::uint64_t full = std::uint64_t{1} << b_;
  if (v.threshold == 0) return 0;
  if (v.threshold >= full) return 1;
  std::uint64_t value = 0;
  for (int t = 0; t < b_; ++t) {
    const DigitForm f = make_form(t, w_, v.input_color, seed);
    assert(f.mask == 0);
    value = (value << 1) | static_cast<std::uint64_t>(f.constant);
  }
  return value < v.threshold ? 1 : 0;
}

std::unique_ptr<CoinFamily> make_bitwise_coin_family(std::uint64_t num_input_colors, int b) {
  return std::make_unique<BitwiseCoinFamily>(num_input_colors, b);
}

}  // namespace dcolor
