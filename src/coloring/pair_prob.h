// Conditional-probability engines for the seed-fixing loop.
//
// During one prefix-extension phase the derandomizer fixes the d seed bits
// one by one; before fixing bit j it needs, for every alive conflict edge
// {u,v}, the joint conditional distribution of the endpoint coins given
// "bits 0..j-1 as already fixed, bit j = cand". PairProbEngine abstracts
// this:
//
//  * GenericPairProb wraps any CoinFamily and recomputes distributions
//    from scratch (O(seed queries) — used for the GF family and as the
//    reference implementation in tests).
//  * FastBitwisePairProb exploits the chunked structure of the bitwise
//    family: once a chunk (one output digit's seed bits) is fully fixed,
//    that digit is a constant; per-edge/per-node DP states advance one
//    digit and never revisit it, and the unfixed digits have a closed-form
//    uniform tail. Each free node keeps, per chunk, its threshold digit
//    and the integer tail of its threshold below that digit. Cost: O(1)
//    per (edge, candidate) query; O(free nodes + listed edges) per fixed
//    a_t bit; O(free nodes + edges with a live endpoint) per fixed c_t bit.
//    Forced and non-participating nodes cost nothing after begin_phase.
//    dependent_edges() lists, per seed bit, only the edges whose two
//    candidates' joints can differ, so a caller that carries the chosen
//    side of the previous joints forward re-queries only those.
//
// Why an unlisted edge carries the chosen side. The engine's joints are
// the coins' exact conditional law given the fixed prefix plus the
// candidate, and the next seed bit is uniform, so for every edge at every
// bit after the first
//   J_beta(previous bit) = (J0 + J1) / 2,
// beta the bit the previous step fixed (the law of total probability).
// An edge whose J0 and J1 are equal thus holds J0 = J1 = J_beta(previous
// bit); the entries are dyadic rationals (see below), so this holds
// exactly, between integer numerators. It needs the true joint law: the
// later digits of two equal input colors are identical, not independent
// as FastBitwisePairProb assumes, so its begin_phase rejects such an edge.
//
// Which edges FastBitwisePairProb lists. Every fixed digit is a point
// mass, so each free node's `tight`/`less` and each edge DP's A/B/C/D
// mass are exactly 0 or 1. Call a free node live while tight == 1 and
// settled once tight == 0 (its marginal is then `less` bit for bit, and
// the A/B/C masses of its edges on its side are 0, so every
// cand-dependent factor is multiplied by an exact 0). So
//  * an edge whose endpoints are each forced or settled never depends on
//    the candidate;
//  * at c_t every live node's digit becomes known ^ cand: the engine
//    lists every edge with a live endpoint;
//  * at an a_t offset o (c_t still free) a live node's digit is a fresh
//    uniform bit whatever cand is, so its marginal, and an edge with one
//    live endpoint, do not depend on cand. For two live endpoints let h
//    = highest set bit of psi_u ^ psi_v. For o < h the remaining variable
//    sets differ (q uniform), for o > h the tentative bit enters both
//    digits or neither (q fixed-correlated), and only at o == h does it
//    enter one digit only (q cand-dependent): the engine lists the live
//    pairs with h == o, at offset 0 of every chunk too.
// Liveness only decays, so the lists are taken over the nodes live
// during the current chunk.
//
// When the coins are decided (decided()). A settled node's coin is its
// `less` flag: `less` is set exactly when the first digit that differs
// from the threshold's digit is below it, which is value < threshold
// whatever the later digits are. So once no free node is live, no later
// seed bit can move any coin, and coin() may be read at once; at every
// remaining bit both candidates' joints are equal. FastBitwisePairProb
// counts its live nodes and answers decided() when the count is 0 (at
// bit 0 already when no node is free). GenericPairProb makes no such
// claim and answers false.
//
// Why FastBitwisePairProb is exact. During chunk t, with r = b - t - 1
// digits after it, every probability it returns is a dyadic rational in
// [0, 1] with at most S = 2r + 2 fraction bits: a node's threshold tail
// is (threshold & (2^r - 1)) * 2^-r, the current digit pair's masses are
// multiples of 1/4, and tight/less and the edge DP masses are 0 or 1.
// The engine evaluates each entry as an integer numerator over 2^S, in
// std::uint64_t while 2b <= 62 and in unsigned __int128 up to b = 63 (the
// factory rejects any other b). edge_diagonals hands the numerators out as
// integers, lifted to the phase-wide scale 2^(2b) (S <= 2b) by a left
// shift of 2b - S, so no rounding happens at all. edge_joint(s) convert
// each entry to long double once, scaled by the exact power 2^-S. For
// b <= 32, S <= 64 fits the long double significand, so every such entry
// is exact and equals (==) the generic engine's (pair_prob_test asserts
// it); for b >= 33 it is the exact value rounded once.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/hash/coin_family.h"

namespace dcolor {

struct ConflictEdge {
  NodeId u;
  NodeId v;
};

class PairProbEngine {
 public:
  virtual ~PairProbEngine() = default;

  // Starts a phase. specs[v] is meaningful for participating nodes; edges
  // index into `edges`, and the two endpoints of an edge have distinct
  // input colors (FastBitwisePairProb throws std::invalid_argument naming
  // the first edge that does not). Resets all fixed seed bits.
  virtual void begin_phase(const std::vector<CoinSpec>& specs,
                           const std::vector<ConflictEdge>& edges) = 0;

  virtual int num_seed_bits() const = 0;

  // Joint distribution of (C_u, C_v) for edge e, conditioned on the fixed
  // prefix extended by one candidate bit `cand`.
  virtual JointDist edge_joint(int e, int cand) = 0;

  // {edge_joint(e, 0), edge_joint(e, 1)}: both candidates in one call.
  virtual std::array<JointDist, 2> edge_joints(int e) {
    return {edge_joint(e, 0), edge_joint(e, 1)};
  }

  // For each listed edge e, out[e] = {J0[0][0], J0[1][1], J1[0][0],
  // J1[1][1]} * 2^(2b) with {J0, J1} = edge_joints(e) and b the coin
  // precision: the probabilities that both coins are 0 and that both are
  // 1, under cand = 0 and cand = 1, as exact integer numerators over the
  // one scale 2^(2b) of the whole phase (every joint entry of either
  // family has at most 2b fraction bits). The element type must hold
  // 2^(2b): the 64-bit form needs b <= 31. Other entries of out are left
  // alone. The generic engine reads its
  // family's long double probabilities, exact for b <= 32 (builds with
  // assertions check that each scaled entry is an integer).
  virtual void edge_diagonals(std::span<const int> edges, std::array<std::uint64_t, 4>* out) = 0;
  virtual void edge_diagonals(std::span<const int> edges,
                              std::array<unsigned __int128, 4>* out) = 0;

  // A superset of the edges e whose two candidates' joints can differ at
  // this bit (edge_joints(e)[0] != edge_joints(e)[1]), each listed once,
  // in no particular order; every edge at the first bit after
  // begin_phase. An unlisted edge's joints are, for both candidates,
  // equal (==) to the previous bit's joints for the bit that step fixed,
  // so a caller may carry that side forward instead of re-querying it.
  // GenericPairProb always lists every edge. The view is the engine's
  // own list, valid until the next fix_next_bit or begin_phase.
  virtual std::span<const int> dependent_edges() const = 0;

  // Permanently fixes the next seed bit.
  virtual void fix_next_bit(int bit) = 0;

  // Whether the fixed bits already determine every coin: then coin(v) is
  // final for every v, whatever the remaining bits are, and decided()
  // stays true until the next begin_phase. May answer false although the
  // coins are decided; GenericPairProb always does.
  virtual bool decided() const = 0;

  // After all seed bits are fixed, or once decided(): the (now
  // deterministic) coin of v.
  virtual int coin(NodeId v) const = 0;
};

std::unique_ptr<PairProbEngine> make_generic_pair_prob(const CoinFamily& family);
// Throws std::invalid_argument naming b unless 1 <= b <= 63.
std::unique_ptr<PairProbEngine> make_fast_bitwise_pair_prob(std::uint64_t num_input_colors,
                                                            int b);

}  // namespace dcolor
