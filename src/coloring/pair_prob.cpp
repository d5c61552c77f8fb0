#include "src/coloring/pair_prob.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>

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

  void fix_next_bit(int bit) override { fixed_.push_back(static_cast<std::uint8_t>(bit)); }

  // The reference makes no structural claim: every edge, every bit.
  void changed_edges(std::vector<int>* out) const override {
    out->resize(edges_.size());
    std::iota(out->begin(), out->end(), 0);
  }

  int coin(NodeId v) const override {
    assert(static_cast<int>(fixed_.size()) == family_->seed_length());
    return family_->coin(specs_[v], fixed_);
  }

 private:
  const CoinFamily* family_;
  std::vector<CoinSpec> specs_;
  std::vector<ConflictEdge> edges_;
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
// Per-chunk caches: refresh_chunk() computes each free node's threshold
// digit, tail and undetermined marginal when chunk t begins, with the same
// operations in the same order as the per-query code they replace. The
// queries read them instead of recomputing them, so every returned
// probability is bit-identical to evaluating the formulas per query.
//
// Changed edges (see pair_prob.h for the argument): a free node is live
// while tight != 0 and settled after; liveness only ever goes from live to
// settled, at a c_t fix. The engine keeps the edges with a live endpoint
// (live_edges_) and, bucketed by h = highest set bit of psi_u ^ psi_v, the
// edges with two live endpoints and distinct input colors (pair_*_), both
// rebuilt once per chunk; changed_ is the set for the next query.
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

  JointDist edge_joint(int e, int cand) override { return joint_dist(e, cand); }

  std::array<JointDist, 2> edge_joints(int e) override {
    return {joint_dist(e, 0), joint_dist(e, 1)};
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
    // node. Advance all DP states one digit.
    for (NodeState& ns : nodes_) {
      const int digit = ns.known ^ bit;
      ns.value = (ns.value << 1) | static_cast<std::uint64_t>(digit);
      if (digit < ns.tau) {
        ns.less += ns.tight;
        ns.tight = 0;
      } else if (digit > ns.tau) {
        ns.tight = 0;
      }
      // digit == tau_t: stays tight.
      ns.known = 0;
    }
    // Only free-free edges carry a DP, and one between two settled nodes
    // holds A = B = C = 0, which the transition maps to itself.
    for (int e : live_edges_) {
      if (edges_[e].u < 0 || edges_[e].v < 0) continue;
      const NodeState& nu = nodes_[edges_[e].u];
      const NodeState& nv = nodes_[edges_[e].v];
      advance_edge(edge_state_[e], nu.tau, nv.tau, static_cast<int>(nu.value & 1),
                   static_cast<int>(nv.value & 1));
    }
    cur_offset_ = 0;
    ++cur_chunk_;
    refresh_chunk();
    // Offset 0 of the next chunk: every edge live during the chunk just
    // completed (new tau/tail/marginal, advanced DP, or newly settled).
    changed_.assign(live_edges_.begin(), live_edges_.end());
    std::erase_if(live_edges_, [&](int e) {
      return !is_live(edges_[e].u) && !is_live(edges_[e].v);
    });
    bucket_live_pairs();
  }

  void changed_edges(std::vector<int>* out) const override {
    out->assign(changed_.begin(), changed_.end());
  }

  int coin(NodeId v) const override {
    assert(cur_chunk_ == b_);
    const int slot = slot_[v];
    if (slot == kForcedZero) return 0;
    if (slot == kForcedOne) return 1;
    return nodes_[slot].value < nodes_[slot].threshold ? 1 : 0;
  }

 private:
  // slot_ entries of forced nodes; free nodes hold their index in nodes_.
  static constexpr int kForcedZero = -1;
  static constexpr int kForcedOne = -2;

  struct NodeState {
    std::uint64_t input_color = 0;
    std::uint64_t threshold = 0;
    std::uint64_t value = 0;  // digits of completed chunks
    int known = 0;            // folded-in part of the current chunk's digit
    int tau = 0;              // threshold digit of the current chunk
    // Pr[tie so far] and Pr[already below]: every completed digit is a
    // point mass, so both are exactly 0 or 1.
    std::uint8_t tight = 1;
    std::uint8_t less = 0;
    // Per-chunk caches, see refresh_chunk().
    long double tail = 0.0L;
    long double marg_free = 0.0L;
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

  // For each free node, at the start of chunk t = cur_chunk_:
  //  * tau       — digit t of the threshold;
  //  * tail      — Pr[uniform r-bit suffix < threshold's low r bits],
  //                r = b - t - 1, i.e. (threshold & (2^r - 1)) * 2^-r;
  //  * marg_free — Pr[value < threshold] while c_t is still free. The
  //                digit is then a fresh uniform bit whatever the a_t bits
  //                are, so this holds for every a_t bit of the chunk.
  void refresh_chunk() {
    const int t = cur_chunk_;
    if (t == b_) return;
    const int r = b_ - t - 1;  // digits after t
    const std::uint64_t mask_low = (r == 0) ? 0 : ((std::uint64_t{1} << r) - 1);
    for (NodeState& ns : nodes_) {
      ns.tau = static_cast<int>(ns.threshold >> (b_ - 1 - t) & 1);
      ns.tail = ldexpl(static_cast<long double>(ns.threshold & mask_low), -r);
      // Uniform digit: Pr[digit < tau_t] + Pr[digit == tau_t] * tail.
      const long double cur = (ns.tau == 1 ? 0.5L : 0.0L) + 0.5L * ns.tail;
      ns.marg_free = ns.less + ns.tight * cur;
    }
  }

  JointDist joint_dist(int e, int cand) const {
    const int su = edges_[e].u;
    const int sv = edges_[e].v;
    long double pu;
    long double pv;
    long double p11;
    if (su < 0 || sv < 0) {
      pu = su < 0 ? (su == kForcedOne ? 1.0L : 0.0L) : marg_prob(nodes_[su], cand);
      pv = sv < 0 ? (sv == kForcedOne ? 1.0L : 0.0L) : marg_prob(nodes_[sv], cand);
      p11 = pu * pv;
    } else {
      pu = marg_prob(nodes_[su], cand);
      pv = marg_prob(nodes_[sv], cand);
      p11 = joint_prob(nodes_[su], nodes_[sv], edge_state_[e], cand);
    }
    JointDist d;
    d[1][1] = p11;
    d[1][0] = pu - p11;
    d[0][1] = pv - p11;
    d[0][0] = 1.0L - pu - pv + p11;
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

  // Pr[value < threshold | fixed prefix + cand] for a free node.
  long double marg_prob(const NodeState& ns, int cand) const {
    if (cur_chunk_ == b_) {
      // All digits fixed (can happen when edge_joint is queried after the
      // final fix; only coin() should be used then, but be safe).
      return ns.value < ns.threshold ? 1.0L : 0.0L;
    }
    // Before c_t the digit is uniform regardless of cand.
    if (cur_offset_ < w_) return ns.marg_free;
    // Tentative bit is c_t: digit = known ^ cand, a constant.
    const int digit = ns.known ^ cand;
    long double cur;  // Pr[suffix from digit t < tau suffix from digit t]
    if (digit < ns.tau) {
      cur = 1.0L;
    } else if (digit > ns.tau) {
      cur = 0.0L;
    } else {
      cur = ns.tail;
    }
    return ns.less + ns.tight * cur;
  }

  // Pr[value_u < tau_u AND value_v < tau_v | fixed prefix + cand] for an
  // edge {u, v} between two free nodes.
  long double joint_prob(const NodeState& nu, const NodeState& nv, const EdgeState& es,
                         int cand) const {
    if (cur_chunk_ == b_) {
      return (nu.value < nu.threshold && nv.value < nv.threshold) ? 1.0L : 0.0L;
    }
    const int tu = nu.tau;
    const int tv = nv.tau;

    // Joint distribution of the current digit pair given the tentative bit.
    // Colors of adjacent nodes differ; whether the two digit forms share
    // the same remaining variable set decides correlation.
    JointDist q{};
    if (cur_offset_ == w_) {
      // Tentative bit is c_t: both digits are constants.
      q[nu.known ^ cand][nv.known ^ cand] = 1.0L;
    } else {
      // c_t is still free for both, so both digits are uniform; they are
      // equal up to the xor of the remaining a_t-part parities. They are
      // perfectly correlated iff the remaining color-bit sets coincide.
      const std::uint64_t rem_mask = cur_offset_ >= 64 ? 0 : (~std::uint64_t{0} << cur_offset_);
      std::uint64_t rem_u = nu.input_color & rem_mask;
      std::uint64_t rem_v = nv.input_color & rem_mask;
      int ku = nu.known;
      int kv = nv.known;
      // Account for the tentative bit cand at position cur_offset_ (an
      // a_t bit, since the branch above covers c_t).
      if (cand && (rem_u >> cur_offset_ & 1)) ku ^= 1;
      if (cand && (rem_v >> cur_offset_ & 1)) kv ^= 1;
      rem_u &= ~(std::uint64_t{1} << cur_offset_);
      rem_v &= ~(std::uint64_t{1} << cur_offset_);
      if (rem_u == rem_v) {
        // digit_u ^ digit_v = ku ^ kv always; digit_u uniform (c_t free).
        const int delta = ku ^ kv;
        q[0][delta] = 0.5L;
        q[1][1 ^ delta] = 0.5L;
      } else {
        // Two distinct nonempty remaining variable sets (they differ in
        // some a_t bit; both contain c_t): uniform on {0,1}^2.
        q[0][0] = q[0][1] = q[1][0] = q[1][1] = 0.25L;
      }
    }

    // Tail factors: after digit t all chunks are free, so the two suffixes
    // are independent uniform r-bit values.
    auto fu = [&](int x) -> long double {
      if (x < tu) return 1.0L;
      if (x > tu) return 0.0L;
      return nu.tail;
    };
    auto fv = [&](int y) -> long double {
      if (y < tv) return 1.0L;
      if (y > tv) return 0.0L;
      return nv.tail;
    };
    long double both_tail = 0.0L;
    long double u_tail = 0.0L;  // Pr[u suffix < tau_u suffix from digit t]
    long double v_tail = 0.0L;
    for (int x = 0; x < 2; ++x) {
      const long double qu = q[x][0] + q[x][1];
      u_tail += qu * fu(x);
      for (int y = 0; y < 2; ++y) {
        both_tail += q[x][y] * fu(x) * fv(y);
        if (x == 0) v_tail += (q[0][y] + q[1][y]) * fv(y);
      }
    }
    return es.D + es.B * u_tail + es.C * v_tail + es.A * both_tail;
  }

  int w_;
  int b_;
  int cur_chunk_ = 0;
  int cur_offset_ = 0;
  std::vector<int> slot_;         // per node: index into nodes_, or kForced*
  std::vector<NodeState> nodes_;  // free nodes, ascending node id
  std::vector<EdgeSlots> edges_;  // per edge: endpoint slots
  std::vector<EdgeState> edge_state_;
  std::vector<int> changed_;     // changed_edges() answer for the next query
  std::vector<int> live_edges_;  // edges with a live endpoint this chunk
  std::vector<int> pair_off_;    // w_+1 offsets into pair_edges_, by h
  std::vector<int> pair_edges_;  // live pairs with distinct colors, by h
  std::vector<int> pair_cursor_;
};

}  // namespace

std::unique_ptr<PairProbEngine> make_generic_pair_prob(const CoinFamily& family) {
  return std::make_unique<GenericPairProb>(family);
}

std::unique_ptr<PairProbEngine> make_fast_bitwise_pair_prob(std::uint64_t num_input_colors,
                                                            int b) {
  return std::make_unique<FastBitwisePairProb>(num_input_colors, b);
}

}  // namespace dcolor
