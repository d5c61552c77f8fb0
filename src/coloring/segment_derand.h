// The Section-4 variant of Lemma 2.1, written once for the CONGESTED
// CLIQUE (Theorem 1.3) and MPC (Theorems 1.4/1.5).
//
// Both models run the same commit cycle: candidate prefixes grow by one
// or more bits per pass, each pass fixes whole SEGMENTS of the seed at
// once (a segment is a block of consecutive bits inside one seed chunk,
// chosen to minimize the conditional expectation of the potential), and
// the final conflict resolution is a single id comparison instead of an
// MIS. The models differ only in what each step costs, so the cycle
// (`section4_commit_cycle`) takes the step size and segment length from
// the caller and charges through three hooks (`Section4Costs`) that each
// model implements once: the clique over `CliqueNetwork`, the MPC over
// machine exchanges and its aggregation tree.
//
// Seed fixing (`segment_derand_step`) is pure math with one objective:
// the expected number of conflict neighbors that land on the same color,
// each such event weighted by 1/|candidates| of the selecting node. Every
// subrange carries the color KEY it stands for, and a pair of selections
// (g_v at v, g_u at u) conflicts exactly when their keys are equal. In
// the commit cycle a subrange's key is the color prefix it extends to;
// conflict neighbors always share the prefix fixed so far (an edge
// survives a pass only when both ends selected the same subrange), so
// equal keys means equal subrange index. In Lemma 4.2 a subrange is one
// color, its key is that color, and every weight is 1.
//
// Because a fully fixed chunk makes the corresponding hash digit a
// deterministic integer, and unfixed future chunks contribute independent
// uniform digits (distinct node indices), conditional interval
// probabilities reduce to O(1) interval-intersection arithmetic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/coloring/list_instance.h"
#include "src/graph/graph.h"

namespace dcolor {

struct MultiwaySpec {
  bool active = false;
  // Interval boundaries over [2^b]: subrange g is selected when the hash
  // value lands in [bounds[g], bounds[g+1]); bounds[0] = 0,
  // bounds[fanout] = 2^b. Empty subranges have equal boundaries.
  std::vector<std::uint64_t> bounds;
  // Number of candidate colors in each subrange (weights 1/k_g).
  std::vector<int> counts;
  // The color key of each subrange, ascending, parallel to `counts`.
  std::vector<std::uint64_t> keys;
};

struct SegmentDerandResult {
  std::vector<int> selected;  // chosen subrange per node (-1 if inactive)
  int segments_fixed = 0;
};

// Runs one derandomized multiway step over the given conflict adjacency.
// Node v's hash input is its index v, which must be < 2^w.
//  * w          — id bits (seed chunk = w+1 bits: a_t then c_t)
//  * b          — hash precision bits (chunks)
//  * lambda     — max segment length in bits (<= machine/clique capacity)
//  * on_segment — called after each segment is fixed (for round charging)
SegmentDerandResult segment_derand_step(const std::vector<MultiwaySpec>& specs,
                                        const std::vector<std::vector<NodeId>>& conflict,
                                        int w, int b, int lambda,
                                        const std::function<void()>& on_segment);

// Builds interval boundaries for a node's subrange counts:
// bounds[g] = ceil(cum_g / size * 2^b), exactly 0/2^b at the extremes.
std::vector<std::uint64_t> multiway_bounds(const std::vector<int>& counts, int b);

// --- The Section-4 commit cycle -------------------------------------------

// What one model charges for the communication of a commit cycle.
class Section4Costs {
 public:
  virtual ~Section4Costs() = default;
  // Before a pass's seed is fixed, every active node ships its subrange
  // boundaries specs[v].bounds[1..] (b+1 bits each) to each neighbor in
  // conflict[v].
  virtual void count_exchange(const std::vector<MultiwaySpec>& specs,
                              const std::vector<std::vector<NodeId>>& conflict, int b) = 0;
  // One seed segment has been fixed.
  virtual void fixed_segment() = 0;
  // The `newly` colored nodes announce colors[v] to their neighbors;
  // `active` already excludes them.
  virtual void commit_announcement(const std::vector<NodeId>& newly,
                                   const std::vector<Color>& colors,
                                   const std::vector<bool>& active) = 0;
};

// The Section-4 keep rule: v keeps its candidate when no neighbor
// conflicts with it, or exactly one does and v has the higher id.
inline bool section4_keeps(NodeId v, const std::vector<NodeId>& conflicting) {
  return conflicting.empty() || (conflicting.size() == 1 && v > conflicting[0]);
}

// Builds the active conflict graph (each active node's active neighbors)
// and trims every active list to deg+1, the precondition of the Section-4
// potential bound. Returns the conflict graph's max degree.
int section4_conflicts(const Graph& g, const std::vector<bool>& active, ListInstance& inst,
                       std::vector<std::vector<NodeId>>& conflict);

// The coin precision of the Section-4 variant: precision_bits_for's
// avoid-MIS value for (max_degree, width), and at least 4.
int section4_precision_bits(int max_degree, int width);

// Commits the active nodes the keep rule selects on the candidate-equal
// conflict graph `conflict`: colors them with candidate[v], deactivates
// them, charges the announcement, and removes their colors from their
// active neighbors' lists. Returns how many it colored; throws
// std::logic_error when none (the potential bound was violated).
NodeId section4_commit(const Graph& g, ListInstance& inst,
                       const std::vector<std::vector<NodeId>>& conflict,
                       const std::vector<Color>& candidate, std::vector<bool>& active,
                       std::vector<Color>& colors, Section4Costs& costs);

// One commit cycle over the active nodes. Each pass splits every candidate
// range into 2^step subranges by the next `step_bits` color bits (fewer in
// the last pass), fixes the seed segment by segment (at most `lambda` bits
// each), narrows the ranges and drops conflict edges whose digits differ;
// the surviving full-width candidates are then committed. Counts its passes
// into *derand_passes and returns how many nodes it colored.
NodeId section4_commit_cycle(const Graph& g, ListInstance& inst, std::vector<bool>& active,
                             std::vector<Color>& colors, int step_bits, int lambda,
                             Section4Costs& costs, int* derand_passes);

}  // namespace dcolor
