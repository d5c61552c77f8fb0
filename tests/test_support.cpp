#include "tests/test_support.h"

#include "src/coloring/mis.h"
#include "src/graph/generators.h"

namespace dcolor::test {

std::vector<NamedGraph> small_corpus() {
  std::vector<NamedGraph> v;
  v.push_back({"cycle64", make_cycle(64)});
  v.push_back({"grid6x8", make_grid(6, 8)});
  v.push_back({"gnp48", make_gnp(48, 0.12, kTestSeed)});
  v.push_back({"tree63", make_binary_tree(63)});
  return v;
}

std::vector<NamedGraph> stress_corpus() {
  std::vector<NamedGraph> v = small_corpus();
  v.push_back({"complete12", make_complete(12)});
  v.push_back({"star33", make_star(33)});
  v.push_back({"cliquepath6x5", make_path_of_cliques(6, 5)});
  v.push_back({"nearreg96d8", make_near_regular(96, 8, kTestSeed + 1)});
  v.push_back({"clustered", make_clustered(5, 12, 0.5, 10, kTestSeed + 2)});
  v.push_back({"gnp128dense", make_gnp(128, 0.15, kTestSeed + 3)});
  return v;
}

InducedSubgraph all_active(const Graph& g) {
  return InducedSubgraph(g, std::vector<bool>(g.num_nodes(), true));
}

bool proper_on_active(const InducedSubgraph& active, const std::vector<std::int64_t>& col) {
  const Graph& g = active.base();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active.contains(v)) continue;
    bool ok = true;
    active.for_each_neighbor(v, [&](NodeId u) { ok &= col[u] != col[v]; });
    if (!ok) return false;
  }
  return true;
}

bool proper_partial_on_active(const InducedSubgraph& active, const std::vector<std::int64_t>& col,
                              std::int64_t uncolored) {
  const Graph& g = active.base();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active.contains(v) || col[v] == uncolored) continue;
    bool ok = true;
    active.for_each_neighbor(v, [&](NodeId u) { ok &= col[u] == uncolored || col[u] != col[v]; });
    if (!ok) return false;
  }
  return true;
}

std::vector<std::uint8_t> seed_bits(std::uint64_t s, int len) {
  std::vector<std::uint8_t> bits(len);
  for (int i = 0; i < len; ++i) bits[i] = static_cast<std::uint8_t>(s >> i & 1);
  return bits;
}

bool bitwise_node_tight(std::uint64_t input_color, std::uint64_t threshold, int w, int b,
                        const std::vector<int>& fixed) {
  const std::size_t chunk = static_cast<std::size_t>(w) + 1;
  for (int t = 0; static_cast<std::size_t>(t + 1) * chunk <= fixed.size(); ++t) {
    const int* seed = fixed.data() + static_cast<std::size_t>(t) * chunk;
    int digit = seed[w];  // c_t
    for (int i = 0; i < w; ++i) digit ^= seed[i] & static_cast<int>(input_color >> i & 1);
    if (digit != static_cast<int>(threshold >> (b - 1 - t) & 1)) return false;
  }
  return true;
}

bool valid_mis(const InducedSubgraph& active, const std::vector<bool>& in_mis) {
  return is_mis(active, in_mis);
}

}  // namespace dcolor::test
