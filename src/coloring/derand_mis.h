// Derandomized distributed MIS in CONGEST — the [CPS17] direction the
// paper builds on ("derandomizing local distributed algorithms under
// bandwidth restrictions"), implemented with this library's coin and
// seed-fixing machinery as an extension beyond the paper's own results.
//
// One iteration of the randomized process: every active node joins a
// candidate set with probability p = 1/(2*Delta) using the SAME
// pairwise-independent coins as the coloring algorithms (Lemma 2.5); a
// candidate enters the MIS if no neighbor is also a candidate. The
// pessimistic estimator
//
//   F = sum_v ( Pr[v joins] - sum_{u~v} Pr[u and v join] )
//
// lower-bounds the expected number of MIS additions and needs only
// PAIRWISE joint probabilities, so the method of conditional expectations
// applies verbatim: fixing the seed bit-by-bit over a BFS tree while
// MAXIMIZING the conditional estimator yields >= E[F] >= n_active/(4*Delta)
// additions per iteration — deterministic progress, O(Delta log n)
// iterations (the simple Luby-A rate; [CPS17] achieves O~(D) with a
// sharper estimator, which we trade for reuse of the existing engine).
//
// The algorithm core is written once over ColoringTransport, the same
// transport interface the Theorem 1.1 pipeline runs on: Linial coin
// coloring, a BFS aggregation tree, one-round exchanges along the active
// adjacency, and per seed bit one aggregate_pair of the two candidate
// sums plus one broadcast_bit, up to the first bit at which every coin is
// decided (derand_channel.h). derandomized_mis runs it on the sequential
// congest::Network (runtime::NetworkColoringTransport), and
// runtime::derandomized_mis on the ParallelEngine
// (src/runtime/mis_program.h).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/congest/metrics.h"
#include "src/graph/graph.h"

namespace dcolor {

struct DerandMisResult {
  std::vector<bool> in_mis;
  int iterations = 0;
  congest::Metrics metrics;
};

// The derandomized MIS core over any transport; the transport's graph
// must be connected (build_tree spans it).
DerandMisResult derandomized_mis_core(ColoringTransport& transport);

// Per-component driver: splits `g` into connected components, solves
// each with `solve_connected` (components execute in parallel — rounds
// and iterations are maxima, traffic adds up).
DerandMisResult derandomized_mis_per_component(
    const Graph& g, const std::function<DerandMisResult(const Graph&)>& solve_connected);

// Deterministic MIS on the communication graph, driven by the sequential
// congest::Network simulator.
DerandMisResult derandomized_mis(const Graph& g);

}  // namespace dcolor
