// Theorem 1.3: deterministic (degree+1)-list coloring in the UNICAST
// CONGESTED CLIQUE.
//
// Differences from the CONGEST algorithm (Section 4 of the paper):
//  * The nodes' unique ids serve as the input coloring (K = n) — no
//    Linial step is needed.
//  * The derandomization fixes WHOLE SEGMENTS of the seed in O(1) rounds:
//    for a segment of lambda <= log n bits, 2^lambda "responsible" nodes
//    each collect Sum_u E[Phi(u) | segment := R] directly (all-to-all
//    messaging), forward their sums to a leader, and the leader broadcasts
//    the minimizing assignment.
//  * The i-bit speedup: once at most n/2^i nodes are uncolored, the
//    prefix extension fixes i bits per derandomization pass — nodes split
//    their candidate ranges into 2^i subranges and the coin selects among
//    them through interval membership of the b-bit hash value (Lenzen
//    routing ships the 2^i subrange counts to conflict neighbors in O(1)
//    rounds). Conflict resolution uses the Section-4 accuracy boost (no
//    MIS): >= half the nodes end with <= 1 conflict, the higher id wins.
//  * Once <= n/Delta nodes remain uncolored, the residual subgraph and
//    lists are shipped to a leader via Lenzen routing and solved locally.
//
// The commit cycle itself is the Section-4 core shared with MPC
// (src/coloring/segment_derand.h); this model supplies the i-bit schedule,
// the segment length lambda = floor(log n), its costs over CliqueNetwork
// (Lenzen-routed counts, 3 rounds per fixed segment, one direct
// announcement round) and the leader shipment.
//
// The bitwise coin family's longer seed costs an extra O(logDelta) factor
// per pass relative to the paper's O(log n)-bit seed — the same
// documented substitution as in CONGEST (src/hash/coin_family.h).
#pragma once

#include <cstdint>
#include <vector>

#include "src/clique/clique_network.h"
#include "src/coloring/list_instance.h"
#include "src/congest/metrics.h"

namespace dcolor::clique {

struct CliqueColoringResult {
  std::vector<Color> colors;
  congest::Metrics metrics;
  int commit_cycles = 0;        // constant-fraction coloring cycles
  int derand_passes = 0;        // multiway prefix-extension passes
  int final_subgraph_size = 0;  // nodes shipped to the leader at the end
};

CliqueColoringResult clique_list_coloring(const Graph& g, ListInstance inst);

}  // namespace dcolor::clique
