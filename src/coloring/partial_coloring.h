// Lemma 2.1: deterministically list-color at least a 1/8 fraction of the
// active nodes in O(D * logC * (logK + logDelta + loglogC)) CONGEST
// rounds.
//
// Structure (Section 2 of the paper):
//   * ceil(logC) phases; phase l fixes the l-th bit (MSB first) of every
//     node's candidate color prefix.
//   * Each phase derandomizes Algorithm 1 (the randomized one-bit prefix
//     extension) by producing the nodes' biased coins from a shared seed
//     (Lemma 2.5) and fixing the seed bit-by-bit with the method of
//     conditional expectations over an aggregation tree (Lemma 2.6).
//   * Afterwards every node holds a single candidate color; nodes with at
//     most 3 conflicting neighbors form a subgraph of max degree 3 on
//     which an MIS (via Linial + color classes) selects the nodes that
//     keep their color permanently.
//   * The Section-4 variant (avoid_mis) uses higher coin accuracy
//     (epsilon smaller by a (Delta+1) factor) so that half the nodes end
//     with at most ONE conflict and a single id-comparison round replaces
//     the MIS.
//
// The algorithm is written once over the ColoringTransport abstraction
// (derand_channel.h): congest::Network drives the sequential reference
// execution, runtime::ParallelEngine the parallel one — with bit-identical
// colors, stats, and Metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/coloring/list_instance.h"
#include "src/coloring/pair_prob.h"
#include "src/congest/network.h"
#include "src/hash/coin_family.h"

namespace dcolor {

struct PartialColoringOptions {
  // The bitwise family runs on the fast incremental conditional-probability
  // engine, the GF family on the generic one.
  CoinFamilyKind family = CoinFamilyKind::kBitwise;
  // Section-4 variant: higher accuracy, no MIS at the end.
  bool avoid_mis = false;
  // Override the simulator's message size (0 = the default Theta(log n)).
  // Small values force the chunked/pipelined exchange paths.
  int bandwidth_bits = 0;
};

struct PartialColoringStats {
  int phases = 0;
  int seed_bits = 0;         // per phase
  int precision_bits = 0;    // b
  NodeId active_before = 0;
  NodeId newly_colored = 0;
  // Potential sum after each phase, to audit the Lemma 2.6 invariant
  // (Phi_l <= Phi_{l-1} + n'/ceil(logC), up to fixed-point aggregation
  // noise absorbed by the epsilon slack): the long double sum of
  // |alive conflict edges(v)| / |candidates(v)| in ascending node order,
  // so both executors report the same value (==). Each term is below
  // 2^31, so no sum overflows.
  std::vector<long double> potential_after_phase;
};

// Runs one invocation of Lemma 2.1 on the subgraph induced by `active`,
// over an arbitrary transport (whose graph is the ORIGINAL graph G).
//
//  * transport      — communication primitives + bound aggregation tree.
//  * active         — current uncolored nodes; colored ones are removed.
//  * inst           — list instance; colored nodes' colors are pruned from
//                     neighbors' lists.
//  * colors         — output coloring (kUncolored entries get filled).
//  * input_coloring — proper K-coloring of the active subgraph.
//  * K              — number of input colors.
PartialColoringStats color_one_eighth(ColoringTransport& transport, InducedSubgraph& active,
                                      ListInstance& inst, std::vector<Color>& colors,
                                      const std::vector<std::int64_t>& input_coloring,
                                      std::int64_t K, const PartialColoringOptions& opts);

// The coin precision the algorithm uses: b = ceil(log2(10 * Delta *
// ceil(logC))) — or with an extra (Delta+1) factor for avoid_mis (§4).
int precision_bits_for(int max_degree, int color_bits, bool avoid_mis);

}  // namespace dcolor
