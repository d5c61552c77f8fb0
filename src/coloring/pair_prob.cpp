#include "src/coloring/pair_prob.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "src/util/bits.h"

namespace dcolor {

// ---------------------------------------------------------------------------
// Generic engine: defers to CoinFamily, recomputing per query.
// ---------------------------------------------------------------------------
namespace {

class GenericPairProb final : public PairProbEngine {
 public:
  explicit GenericPairProb(const CoinFamily& family) : family_(&family) {}

  void begin_phase(const std::vector<CoinSpec>& specs,
                   const std::vector<ConflictEdge>& edges) override {
    specs_ = specs;
    edges_ = edges;
    all_edges_.resize(edges.size());
    std::iota(all_edges_.begin(), all_edges_.end(), 0);
    fixed_.clear();
  }

  int num_seed_bits() const override { return family_->seed_length(); }

  JointDist edge_joint(int e, int cand) override {
    fixed_.push_back(static_cast<std::uint8_t>(cand));
    const JointDist d =
        family_->pair_dist(specs_[edges_[e].u], specs_[edges_[e].v], fixed_);
    fixed_.pop_back();
    return d;
  }

  void edge_diagonals(std::span<const int> edges, std::array<std::uint64_t, 4>* out) override {
    diagonals(edges, out);
  }
  void edge_diagonals(std::span<const int> edges,
                      std::array<unsigned __int128, 4>* out) override {
    diagonals(edges, out);
  }

  void fix_next_bit(int bit) override { fixed_.push_back(static_cast<std::uint8_t>(bit)); }

  // The reference makes no structural claim: every edge, every bit, and
  // no coin decided before the last bit.
  std::span<const int> changed_edges() const override { return all_edges_; }
  bool decided() const override { return false; }

  int coin(NodeId v) const override {
    assert(static_cast<int>(fixed_.size()) == family_->seed_length());
    return family_->coin(specs_[v], fixed_);
  }

 private:
  template <typename Out>
  void diagonals(std::span<const int> edges, std::array<Out, 4>* out) {
    const int two_b = 2 * family_->precision_bits();
    assert(two_b < static_cast<int>(8 * sizeof(Out)) && "2^(2b) does not fit the numerators");
    for (const int e : edges) {
      const auto [J0, J1] = edge_joints(e);
      out[e] = {numerator<Out>(J0[0][0], two_b), numerator<Out>(J0[1][1], two_b),
                numerator<Out>(J1[0][0], two_b), numerator<Out>(J1[1][1], two_b)};
    }
  }

  // p * 2^two_b, an integer when p has at most two_b fraction bits.
  template <typename Out>
  static Out numerator(long double p, int two_b) {
    const long double x = std::ldexp(p, two_b);
    assert(x == std::floor(x) && "a joint entry has more than 2b fraction bits");
    return static_cast<Out>(x);
  }

  const CoinFamily* family_;
  std::vector<CoinSpec> specs_;
  std::vector<ConflictEdge> edges_;
  std::vector<int> all_edges_;  // changed_edges(): 0, 1, ..., |edges| - 1
  std::vector<std::uint8_t> fixed_;
};

// ---------------------------------------------------------------------------
// Fast engine for the bitwise family.
// ---------------------------------------------------------------------------
//
// Seed layout: chunk t (t = 0..b-1, the MSB-first output digit) owns bits
// [t*(w+1), (t+1)*(w+1)); within a chunk, bits 0..w-1 are a_t (a_t[i]
// pairs with color bit i) and bit w is c_t. Digit t of color x is
// <a_t, bits(x)> ^ c_t.
//
// Invariant maintained across fix_next_bit calls: all digits < cur_chunk_
// are constants folded into per-node and per-edge DP states; digit
// cur_chunk_ is partially substituted; digits > cur_chunk_ are fully free
// and therefore (for any two distinct colors) independent uniform.
//
// Only free nodes (0 < threshold < 2^b) carry DP state, stored densely in
// ascending node order; only edges between two free nodes carry an edge
// DP. A forced coin (threshold 0 or 2^b, which includes every
// non-participating node) is a constant, so after begin_phase the work per
// seed bit is proportional to the free nodes and edges, not to n.
//
// Arithmetic (see pair_prob.h for why it is exact): during chunk t, with
// r = b - t - 1 digits after it, every probability is an integer Num over
// 2^S, S = 2r + 2. A free node's digit-t factors f(x) = Pr[its suffix from
// digit t is below its threshold's | digit t = x] are integers over 2^r:
// f(tau) = tail = threshold & (2^r - 1), f(x < tau) = 2^r, f(x > tau) = 0.
// Num is std::uint64_t for 2b <= 62, where 2^S <= 2^(2b) fits it, and
// unsigned __int128 up to b = 63. edge_diagonals shifts each numerator
// left by 2b - S onto the phase scale 2^(2b); edge_joint(s) convert each
// entry to long double once, scaled by the exact power 2^-S.
//
// Changed edges (see pair_prob.h for the argument): a free node is live
// while tight != 0 and settled after; liveness only ever goes from live to
// settled, at a c_t fix. The engine keeps the edges with a live endpoint
// (live_edges_) and, bucketed by h = highest set bit of psi_u ^ psi_v, the
// edges with two live endpoints and distinct input colors (pair_*_), both
// rebuilt once per chunk; changed_ is the set for the next query. It also
// counts the live nodes (live_nodes_): at 0 every coin is its node's
// `less` flag, final whatever bits follow (decided()).
template <typename Num>
class FastBitwisePairProb final : public PairProbEngine {
 public:
  FastBitwisePairProb(std::uint64_t num_input_colors, int b)
      : w_(ceil_log2(std::max<std::uint64_t>(num_input_colors, 2))), b_(b) {}

  void begin_phase(const std::vector<CoinSpec>& specs,
                   const std::vector<ConflictEdge>& edges) override {
    cur_chunk_ = 0;
    cur_offset_ = 0;
    const std::uint64_t full = std::uint64_t{1} << b_;
    slot_.resize(specs.size());
    nodes_.clear();
    nodes_.reserve(std::count_if(specs.begin(), specs.end(), [&](const CoinSpec& s) {
      return s.threshold != 0 && s.threshold < full;
    }));
    for (std::size_t v = 0; v < specs.size(); ++v) {
      const CoinSpec& s = specs[v];
      if (s.threshold == 0) {
        slot_[v] = kForcedZero;
      } else if (s.threshold >= full) {
        slot_[v] = kForcedOne;
      } else {
        slot_[v] = static_cast<int>(nodes_.size());
        NodeState ns;
        ns.input_color = s.input_color;
        ns.threshold = s.threshold;
        nodes_.push_back(ns);
      }
    }
    live_nodes_ = static_cast<int>(nodes_.size());  // every free node starts tight
    edges_.resize(edges.size());
    live_edges_.clear();
    for (std::size_t e = 0; e < edges.size(); ++e) {
      edges_[e] = EdgeSlots{slot_[edges[e].u], slot_[edges[e].v]};
      // Free nodes all start tight, so every edge with a free end is live.
      if (edges_[e].u >= 0 || edges_[e].v >= 0) live_edges_.push_back(static_cast<int>(e));
    }
    edge_state_.assign(edges.size(), EdgeState{});
    refresh_chunk();
    changed_.resize(edges.size());  // at the first bit every edge is new
    std::iota(changed_.begin(), changed_.end(), 0);
    bucket_live_pairs();
  }

  int num_seed_bits() const override { return b_ * (w_ + 1); }

  JointDist edge_joint(int e, int cand) override { return joint_dist(nums(e, cand)); }

  std::array<JointDist, 2> edge_joints(int e) override {
    return {joint_dist(nums(e, 0)), joint_dist(nums(e, 1))};
  }

  void edge_diagonals(std::span<const int> edges, std::array<std::uint64_t, 4>* out) override {
    diagonals(edges, out);
  }
  void edge_diagonals(std::span<const int> edges,
                      std::array<unsigned __int128, 4>* out) override {
    diagonals(edges, out);
  }

  void fix_next_bit(int bit) override {
    if (cur_offset_ < w_) {
      // Fixing a_t[cur_offset_]: folds into `known` of nodes whose color
      // has that bit set.
      if (bit) {
        for (NodeState& ns : nodes_) {
          if (ns.input_color >> cur_offset_ & 1) ns.known ^= 1;
        }
      }
      ++cur_offset_;
      if (cur_offset_ < w_) {
        // Only live pairs with h == cur_offset_ (q turns cand-dependent)
        // or h == cur_offset_ - 1 (q turns fixed-correlated) can move.
        changed_.clear();
        for (int h : {cur_offset_, cur_offset_ - 1}) {
          changed_.insert(changed_.end(), pair_edges_.begin() + pair_off_[h],
                          pair_edges_.begin() + pair_off_[h + 1]);
        }
      } else {
        changed_.assign(live_edges_.begin(), live_edges_.end());  // c_t is next
      }
      return;
    }
    // Fixing c_t: the digit becomes the constant known ^ bit for every
    // node. Advance all DP states one digit: the edges first, while
    // `known` still holds the digits' folded-in parts. Only free-free
    // edges carry a DP, and one between two settled nodes holds
    // A = B = C = 0, which the transition maps to itself.
    for (int e : live_edges_) {
      if (edges_[e].u < 0 || edges_[e].v < 0) continue;
      const NodeState& nu = nodes_[edges_[e].u];
      const NodeState& nv = nodes_[edges_[e].v];
      advance_edge(edge_state_[e], nu.tau, nv.tau, nu.known ^ bit, nv.known ^ bit);
    }
    for (NodeState& ns : nodes_) {
      const int digit = ns.known ^ bit;
      // digit == tau_t: stays tight.
      if (digit != ns.tau) {
        if (digit < ns.tau) ns.less += ns.tight;
        live_nodes_ -= ns.tight;
        ns.tight = 0;
      }
      ns.known = 0;
    }
    cur_offset_ = 0;
    ++cur_chunk_;
    refresh_chunk();
    // Offset 0 of the next chunk: every edge live during the chunk just
    // completed (new tau and tail, advanced DP, or newly settled).
    changed_.assign(live_edges_.begin(), live_edges_.end());
    std::erase_if(live_edges_, [&](int e) {
      return !is_live(edges_[e].u) && !is_live(edges_[e].v);
    });
    bucket_live_pairs();
  }

  std::span<const int> changed_edges() const override { return changed_; }

  bool decided() const override { return live_nodes_ == 0; }

  // A free node's coin is `less`: value < threshold once a digit
  // differed, and 0 for a node still tight after the last digit (value
  // == threshold).
  int coin(NodeId v) const override {
    assert(cur_chunk_ == b_ || decided());
    const int slot = slot_[v];
    if (slot == kForcedZero) return 0;
    if (slot == kForcedOne) return 1;
    return nodes_[slot].less;
  }

 private:
  // slot_ entries of forced nodes; free nodes hold their index in nodes_.
  static constexpr int kForcedZero = -1;
  static constexpr int kForcedOne = -2;

  struct NodeState {
    std::uint64_t input_color = 0;
    std::uint64_t threshold = 0;
    std::uint64_t tail = 0;   // threshold & (2^r - 1) of the current chunk
    int known = 0;            // folded-in part of the current chunk's digit
    int tau = 0;              // threshold digit of the current chunk
    // Pr[tie so far] and Pr[already below]: every completed digit is a
    // point mass, so both are exactly 0 or 1.
    std::uint8_t tight = 1;
    std::uint8_t less = 0;
  };
  // An edge's endpoints as slot_ entries.
  struct EdgeSlots {
    int u;
    int v;
  };
  // Joint DP over completed digits: A = both tight, B = u tight & v less,
  // C = u less & v tight, D = both less. Point masses like the node
  // states: at most one of them is 1, the rest 0.
  struct EdgeState {
    std::uint8_t A = 1, B = 0, C = 0, D = 0;
  };
  // Numerators over 2^S of Pr[C_u = 1], Pr[C_v = 1], Pr[C_u = C_v = 1].
  struct Nums {
    Num pu;
    Num pv;
    Num p11;
  };

  // A free node whose value still ties its threshold on every completed
  // digit; forced slots and settled nodes (tight == 0) are not live.
  bool is_live(int slot) const { return slot >= 0 && nodes_[slot].tight != 0; }

  // Counting sort of the edges with two live endpoints by h =
  // bit_width(psi_u ^ psi_v) - 1. Equal colors have no h, and colors that
  // differ only at or above bit w_ keep q uniform at every a_t offset;
  // neither kind is ever listed at an a_t offset.
  void bucket_live_pairs() {
    pair_off_.assign(static_cast<std::size_t>(w_) + 1, 0);
    auto h_of = [&](int e) {
      if (!is_live(edges_[e].u) || !is_live(edges_[e].v)) return -1;
      const std::uint64_t x = nodes_[edges_[e].u].input_color ^ nodes_[edges_[e].v].input_color;
      const int h = static_cast<int>(std::bit_width(x)) - 1;
      return h < w_ ? h : -1;
    };
    for (int e : live_edges_) {
      const int h = h_of(e);
      if (h >= 0) ++pair_off_[h + 1];
    }
    for (int h = 0; h < w_; ++h) pair_off_[h + 1] += pair_off_[h];
    pair_edges_.resize(pair_off_[w_]);
    pair_cursor_.assign(pair_off_.begin(), pair_off_.end() - 1);
    for (int e : live_edges_) {
      const int h = h_of(e);
      if (h >= 0) pair_edges_[pair_cursor_[h]++] = e;
    }
  }

  // At the start of chunk t = cur_chunk_: the chunk's scale, and for each
  // free node digit t of its threshold (tau) and its low r bits (tail).
  // After the last chunk every probability is 0 or 1 (S = 0).
  void refresh_chunk() {
    const int t = cur_chunk_;
    r_ = b_ - t - 1;
    const int S = t == b_ ? 0 : 2 * r_ + 2;
    one_ = Num{1} << S;
    scale_ = std::ldexp(1.0L, -S);
    lift_ = 2 * b_ - S;
    if (t == b_) return;
    const std::uint64_t mask_low = (std::uint64_t{1} << r_) - 1;
    for (NodeState& ns : nodes_) {
      ns.tau = static_cast<int>(ns.threshold >> r_ & 1);
      ns.tail = ns.threshold & mask_low;
    }
  }

  long double to_ld(Num x) const { return static_cast<long double>(x) * scale_; }

  // The numerators over 2^S lifted to 2^(2b): Out holds 2^(2b), so it
  // holds 2^S too, and the shift is exact.
  template <typename Out>
  void diagonals(std::span<const int> edges, std::array<Out, 4>* out) const {
    assert(2 * b_ < static_cast<int>(8 * sizeof(Out)) && "2^(2b) does not fit the numerators");
    const int lift = lift_;
    for (const int e : edges) {
      const Nums n0 = nums(e, 0);
      const Nums n1 = nums(e, 1);
      out[e] = {static_cast<Out>(both_zero(n0)) << lift, static_cast<Out>(n0.p11) << lift,
                static_cast<Out>(both_zero(n1)) << lift, static_cast<Out>(n1.p11) << lift};
    }
  }

  // Pr[C_u = 0 and C_v = 0] = 1 - pu - pv + p11. The unsigned
  // intermediates may wrap; the result lies in [0, 2^S] and is exact.
  Num both_zero(const Nums& n) const { return one_ - n.pu - n.pv + n.p11; }

  JointDist joint_dist(const Nums& n) const {
    JointDist d;
    d[1][1] = to_ld(n.p11);
    d[1][0] = to_ld(n.pu - n.p11);
    d[0][1] = to_ld(n.pv - n.p11);
    d[0][0] = to_ld(both_zero(n));
    return d;
  }

  // Point-mass transition of an edge DP at the fixed digits (du, dv),
  // given the endpoints' threshold digits (tu, tv).
  static void advance_edge(EdgeState& es, int tu, int tv, int du, int dv) {
    const int u_out = du < tu ? -1 : (du == tu ? 0 : 1);  // -1 less, 0 tight, 1 greater
    const int v_out = dv < tv ? -1 : (dv == tv ? 0 : 1);
    std::uint8_t nA = 0, nB = 0, nC = 0, nD = es.D;
    if (u_out == 0 && v_out == 0) nA = es.A;
    if (u_out == 0 && v_out == -1) nB += es.A;
    if (u_out == -1 && v_out == 0) nC += es.A;
    if (u_out == -1 && v_out == -1) nD += es.A;
    if (u_out == 0) nB += es.B;
    if (u_out == -1) nD += es.B;
    if (v_out == 0) nC += es.C;
    if (v_out == -1) nD += es.C;
    es.A = nA;
    es.B = nB;
    es.C = nC;
    es.D = nD;
  }

  // f(x) over 2^r (see above) for a free node in chunk cur_chunk_.
  std::uint64_t f(const NodeState& ns, int x) const {
    return x == ns.tau ? ns.tail : static_cast<std::uint64_t>(x < ns.tau) << r_;
  }

  // f(0) + f(1).
  std::uint64_t f_sum(const NodeState& ns) const {
    return ns.tail + (static_cast<std::uint64_t>(ns.tau) << r_);
  }

  // x if flag (0 or 1) is set, else 0.
  static Num pick(std::uint8_t flag, Num x) { return (Num{0} - flag) & x; }

  // Pr[suffix from digit t < threshold's suffix | tight, prefix + cand],
  // over 2^S. Before c_t the digit is a fresh uniform bit whatever cand
  // is; at c_t it is the constant known ^ cand.
  Num cur(const NodeState& ns, int cand) const {
    if (cur_offset_ < w_) return Num{f_sum(ns)} << (r_ + 1);
    return Num{f(ns, ns.known ^ cand)} << (r_ + 2);
  }

  // Pr[value < threshold | prefix + cand] for a free node, over 2^S.
  // After the last digit it is `less` (a still tight node ties).
  Num marg(const NodeState& ns, int cand) const {
    if (cur_chunk_ == b_) return pick(ns.less, one_);
    return pick(ns.less, one_) | pick(ns.tight, cur(ns, cand));
  }

  // The three numerators of edge e given the fixed prefix + cand.
  Nums nums(int e, int cand) const {
    const int su = edges_[e].u;
    const int sv = edges_[e].v;
    if (su < 0 || sv < 0) {
      const Num pu = su < 0 ? (su == kForcedOne ? one_ : 0) : marg(nodes_[su], cand);
      const Num pv = sv < 0 ? (sv == kForcedOne ? one_ : 0) : marg(nodes_[sv], cand);
      // A forced factor is 0 or 1, so the product is 0 or the other one.
      const Num p11 = su == kForcedZero || sv == kForcedZero ? 0 : su == kForcedOne ? pv : pu;
      return {pu, pv, p11};
    }
    const NodeState& nu = nodes_[su];
    const NodeState& nv = nodes_[sv];
    if (cur_chunk_ == b_) {
      return {marg(nu, cand), marg(nv, cand), pick(nu.less & nv.less, one_)};
    }
    const Num cu = cur(nu, cand);
    const Num cv = cur(nv, cand);
    const EdgeState& es = edge_state_[e];
    // At most one flag of each OR is set.
    const Num p11 = pick(es.D, one_) | pick(es.B, cu) | pick(es.C, cv) |
                    pick(es.A, both_cur(nu, nv, cand));
    return {pick(nu.less, one_) | pick(nu.tight, cu), pick(nv.less, one_) | pick(nv.tight, cv),
            p11};
  }

  // Pr[both suffixes from digit t below their thresholds' | both tight,
  // prefix + cand], over 2^S. The digit pair's joint q is a point mass at
  // c_t. Before c_t both digits are uniform, and they are equal up to the
  // xor of the remaining a_t-part parities: perfectly correlated (q = 1/2
  // on digit_u ^ digit_v = delta) iff the colors agree above the tentative
  // bit, uniform on {0,1}^2 otherwise. After digit t the two suffixes are
  // independent uniform r-bit values.
  Num both_cur(const NodeState& nu, const NodeState& nv, int cand) const {
    if (cur_offset_ == w_) {
      return Num{f(nu, nu.known ^ cand)} * f(nv, nv.known ^ cand) << 2;
    }
    const std::uint64_t x = nu.input_color ^ nv.input_color;
    if (x >> cur_offset_ >> 1 != 0) {
      return Num{f_sum(nu)} * f_sum(nv);
    }
    const int delta = nu.known ^ nv.known ^ (cand & static_cast<int>(x >> cur_offset_ & 1));
    return (Num{f(nu, 0)} * f(nv, delta) + Num{f(nu, 1)} * f(nv, 1 ^ delta)) << 1;
  }

  int w_;
  int b_;
  int cur_chunk_ = 0;
  int cur_offset_ = 0;
  int r_ = 0;              // digits after cur_chunk_
  Num one_ = 1;            // 2^S, the numerator of probability 1
  long double scale_ = 1;  // 2^-S
  int lift_ = 0;           // 2b - S: edge_diagonals' shift to the scale 2^(2b)
  std::vector<int> slot_;         // per node: index into nodes_, or kForced*
  std::vector<NodeState> nodes_;  // free nodes, ascending node id
  std::vector<EdgeSlots> edges_;  // per edge: endpoint slots
  std::vector<EdgeState> edge_state_;
  std::vector<int> changed_;     // changed_edges() answer for the next query
  std::vector<int> live_edges_;  // edges with a live endpoint this chunk
  std::vector<int> pair_off_;    // w_+1 offsets into pair_edges_, by h
  std::vector<int> pair_edges_;  // live pairs with distinct colors, by h
  std::vector<int> pair_cursor_;
  int live_nodes_ = 0;  // free nodes with tight != 0
};

}  // namespace

std::unique_ptr<PairProbEngine> make_generic_pair_prob(const CoinFamily& family) {
  return std::make_unique<GenericPairProb>(family);
}

std::unique_ptr<PairProbEngine> make_fast_bitwise_pair_prob(std::uint64_t num_input_colors,
                                                            int b) {
  if (b < 1 || b > 63) {
    throw std::invalid_argument("make_fast_bitwise_pair_prob: precision b = " +
                                std::to_string(b) + " is outside [1, 63]");
  }
  // 2^S <= 2^(2b) must fit the numerator type.
  if (2 * b <= 62) return std::make_unique<FastBitwisePairProb<std::uint64_t>>(num_input_colors, b);
  return std::make_unique<FastBitwisePairProb<unsigned __int128>>(num_input_colors, b);
}

}  // namespace dcolor
