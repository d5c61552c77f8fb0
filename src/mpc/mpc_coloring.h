// Theorems 1.4 and 1.5: deterministic (degree+1)-list coloring in the MPC
// model, plus Lemma 4.2 (the O(log n)-round finisher used in the
// sublinear regime when Delta < n^{alpha/2}).
//
// Both regimes run the Section-4 core shared with the congested clique
// (src/coloring/segment_derand.h) — one candidate-color bit fixed per
// derandomization pass, higher coin accuracy so the final conflict
// resolution is a single id comparison (no MIS) — with the seed fixed
// segment-at-a-time over a machine aggregation tree. This model supplies
// the step size, the segment length and its costs (S-word-budgeted
// machine exchanges, one tree aggregation + broadcast per segment):
//
//  * linear memory (Theorem 1.4): S = Theta(n); every node's incident
//    edges and color list live on one machine M_u; after O(log Delta)
//    constant-fraction iterations at most n/Delta^2 nodes remain and the
//    residual instance (<= n/Delta edges) is shipped to one machine.
//  * sublinear memory (Theorem 1.5): S = Theta(n^alpha); a node's data may
//    span machines, so per-node counts are combined over aggregation
//    trees (Section 5) at O(1/alpha) rounds a pass. If Delta < n^{alpha/2}
//    the run finishes with Lemma 4.2 — every remaining node's color is
//    chosen in ONE multiway derandomization pass (fanout = its whole
//    list, unit counts), repeated O(log n) times.
//
// The MpcSystem validates that no machine ever stores, sends or receives
// more than S words; results report honest round counts under that
// regime. The bitwise coin family's longer seed costs an extra
// O(log Delta) factor per pass versus the paper's O(log n)-bit seed — the
// same documented substitution as in the other models
// (src/hash/coin_family.h).
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/list_instance.h"
#include "src/mpc/mpc_system.h"

namespace dcolor::mpc {

struct MpcColoringResult {
  std::vector<Color> colors;
  MpcMetrics metrics;
  int num_machines = 0;
  std::int64_t memory_words = 0;
  int commit_cycles = 0;
  int derand_passes = 0;
  bool finished_on_one_machine = false;  // linear-regime final stage
  int lemma42_passes = 0;                // sublinear-regime finisher
};

// Theorem 1.4. S = Theta(n) words.
MpcColoringResult mpc_list_coloring_linear(const Graph& g, ListInstance inst);

// Theorem 1.5. S = Theta(n^alpha) words, 0 < alpha < 1.
MpcColoringResult mpc_list_coloring_sublinear(const Graph& g, ListInstance inst,
                                              double alpha = 0.5);

}  // namespace dcolor::mpc
