// (degree+1)-list-coloring instances (Section 2 preliminaries).
//
// A list-coloring instance assigns each node v a list L(v) of allowed
// colors from a global color space [C] with |L(v)| >= deg(v) + 1. Lists
// are kept SORTED; because colors are compared as fixed-width bitstrings
// (MSB first), the set of list entries sharing a given prefix is a
// contiguous range — the prefix-extension algorithm exploits this to
// maintain candidate sets as index ranges.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace dcolor {

using Color = std::int64_t;
constexpr Color kUncolored = -1;

class ListInstance {
 public:
  // Sorts every list. Throws std::invalid_argument, naming the node, when
  // the list count is not n or a list is shorter than deg(v)+1, holds a
  // color outside [0, color_space) or holds a color twice.
  ListInstance(const Graph& g, std::int64_t color_space, std::vector<std::vector<Color>> lists);

  // The canonical (Delta+1)-coloring instance: L(v) = {0..deg(v)}
  // (Observation 4.1's reduction).
  static ListInstance delta_plus_one(const Graph& g);

  // Random lists of size deg(v)+1 drawn from [C]; throws
  // std::invalid_argument, naming the node, when C < deg(v)+1.
  static ListInstance random_lists(const Graph& g, std::int64_t color_space, std::uint64_t seed);

  // Adversarial-ish instance: all lists drawn from a small shared pool so
  // conflicts are maximally likely.
  static ListInstance shared_pool_lists(const Graph& g, std::int64_t pool_size,
                                        std::uint64_t seed);

  const Graph& graph() const { return *g_; }
  std::int64_t color_space() const { return color_space_; }
  int color_bits() const { return color_bits_; }  // ceil(log2 C)

  const std::vector<Color>& list(NodeId v) const { return lists_[v]; }

  // Removes `c` from L(v) if present. Returns true if removed.
  bool remove_color(NodeId v, Color c);

  // Keeps only the first `keep` entries of L(v) (the MIS-avoidance variant
  // trims lists so |L(v)| <= deg(v)+1 always holds; removing colors from a
  // list never invalidates a (degree+1) instance as long as enough remain).
  void trim_list(NodeId v, std::size_t keep);

  // Checks |L(v)| >= active_degree(v)+1 for all active nodes.
  bool feasible_for(const InducedSubgraph& active) const;

  // Validation of a complete coloring: proper + each node colored from its
  // ORIGINAL list (call on the pristine instance).
  bool valid_solution(const std::vector<Color>& colors) const;

 private:
  const Graph* g_;
  std::int64_t color_space_;
  int color_bits_;
  std::vector<std::vector<Color>> lists_;
};

}  // namespace dcolor
