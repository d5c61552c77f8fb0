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
//    uniform tail. Everything that depends only on (threshold, chunk) —
//    each node's threshold digit, its tail probability, and its marginal
//    while the chunk's last bit c_t is still free — is cached once per
//    chunk for the free nodes (0 < threshold < 2^b). Cost: O(1) per
//    (edge, seed bit, candidate), O(free nodes) per fixed a_t bit, and
//    O(free nodes + edges) per fixed c_t bit; forced and non-participating
//    nodes cost nothing after begin_phase.
//
// Both engines are exact up to long-double rounding (pair_prob_test holds
// them to 1e-12 of each other on every query).
#pragma once

#include <array>
#include <memory>
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
  // index into `edges`. Resets all fixed seed bits.
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

  // Permanently fixes the next seed bit.
  virtual void fix_next_bit(int bit) = 0;

  // After all seed bits are fixed: the (now deterministic) coin of v.
  virtual int coin(NodeId v) const = 0;
};

std::unique_ptr<PairProbEngine> make_generic_pair_prob(const CoinFamily& family);
std::unique_ptr<PairProbEngine> make_fast_bitwise_pair_prob(std::uint64_t num_input_colors,
                                                            int b);

}  // namespace dcolor
