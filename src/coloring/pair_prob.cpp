#include "src/coloring/pair_prob.h"

#include <algorithm>
#include <cassert>
#include <cmath>

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
    free_edges_.clear();
    free_edges_.reserve(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
      edges_[e] = EdgeSlots{slot_[edges[e].u], slot_[edges[e].v]};
      if (edges_[e].u >= 0 && edges_[e].v >= 0) free_edges_.push_back(static_cast<int>(e));
    }
    edge_state_.assign(edges.size(), EdgeState{});
    refresh_chunk();
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
      return;
    }
    // Fixing c_t: the digit becomes the constant known ^ bit for every
    // node. Advance all DP states one digit.
    for (NodeState& ns : nodes_) {
      const int digit = ns.known ^ bit;
      ns.value = (ns.value << 1) | static_cast<std::uint64_t>(digit);
      if (digit < ns.tau) {
        ns.less += ns.tight;
        ns.tight = 0.0L;
      } else if (digit > ns.tau) {
        ns.tight = 0.0L;
      }
      // digit == tau_t: stays tight.
      ns.known = 0;
    }
    for (int e : free_edges_) {
      const NodeState& nu = nodes_[edges_[e].u];
      const NodeState& nv = nodes_[edges_[e].v];
      advance_edge(edge_state_[e], nu.tau, nv.tau, static_cast<int>(nu.value & 1),
                   static_cast<int>(nv.value & 1));
    }
    cur_offset_ = 0;
    ++cur_chunk_;
    refresh_chunk();
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
    long double tight = 1.0L;
    long double less = 0.0L;
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
  // C = u less & v tight, D = both less.
  struct EdgeState {
    long double A = 1.0L, B = 0.0L, C = 0.0L, D = 0.0L;
  };

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
    long double nA = 0, nB = 0, nC = 0, nD = es.D;
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
  std::vector<int> free_edges_;  // edges between two free nodes, ascending
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
