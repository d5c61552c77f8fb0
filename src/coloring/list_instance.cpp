#include "src/coloring/list_instance.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/util/bits.h"

namespace dcolor {

ListInstance::ListInstance(const Graph& g, std::int64_t color_space,
                           std::vector<std::vector<Color>> lists)
    : g_(&g),
      color_space_(color_space),
      color_bits_(ceil_log2(std::max<std::uint64_t>(static_cast<std::uint64_t>(color_space), 2))),
      lists_(std::move(lists)) {
  if (static_cast<std::int64_t>(lists_.size()) != g.num_nodes()) {
    throw std::invalid_argument("ListInstance: " + std::to_string(lists_.size()) +
                                " lists for " + std::to_string(g.num_nodes()) + " nodes");
  }
  auto reject = [](NodeId v, const std::string& what) {
    throw std::invalid_argument("ListInstance: node " + std::to_string(v) + " " + what);
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto& L = lists_[v];
    std::sort(L.begin(), L.end());
    if (static_cast<std::int64_t>(L.size()) < g.degree(v) + 1) {
      reject(v, "has " + std::to_string(L.size()) + " colors, fewer than deg+1 = " +
                    std::to_string(g.degree(v) + 1));
    }
    if (L.front() < 0 || L.back() >= color_space) {
      reject(v, "has a color outside [0, " + std::to_string(color_space) + ")");
    }
    if (std::adjacent_find(L.begin(), L.end()) != L.end()) reject(v, "lists a color twice");
  }
}

ListInstance ListInstance::delta_plus_one(const Graph& g) {
  std::vector<std::vector<Color>> lists(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    lists[v].resize(g.degree(v) + 1);
    for (int i = 0; i <= g.degree(v); ++i) lists[v][i] = i;
  }
  return ListInstance(g, g.max_degree() + 1, std::move(lists));
}

ListInstance ListInstance::random_lists(const Graph& g, std::int64_t color_space,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Color>> lists(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int need = g.degree(v) + 1;
    if (color_space < need) {
      throw std::invalid_argument("ListInstance::random_lists: node " + std::to_string(v) +
                                  " needs " + std::to_string(need) + " colors, color space is " +
                                  std::to_string(color_space));
    }
    // Floyd's algorithm for a uniform random subset of size `need`.
    std::vector<Color> sample;
    for (std::int64_t j = color_space - need; j < color_space; ++j) {
      const Color t = static_cast<Color>(rng.next_below(static_cast<std::uint64_t>(j) + 1));
      if (std::find(sample.begin(), sample.end(), t) == sample.end()) {
        sample.push_back(t);
      } else {
        sample.push_back(static_cast<Color>(j));
      }
    }
    lists[v] = std::move(sample);
  }
  return ListInstance(g, color_space, std::move(lists));
}

ListInstance ListInstance::shared_pool_lists(const Graph& g, std::int64_t pool_size,
                                             std::uint64_t seed) {
  return random_lists(g, pool_size, seed);
}

bool ListInstance::remove_color(NodeId v, Color c) {
  auto& L = lists_[v];
  const auto it = std::lower_bound(L.begin(), L.end(), c);
  if (it != L.end() && *it == c) {
    L.erase(it);
    return true;
  }
  return false;
}

void ListInstance::trim_list(NodeId v, std::size_t keep) {
  if (lists_[v].size() > keep) lists_[v].resize(keep);
}

bool ListInstance::feasible_for(const InducedSubgraph& active) const {
  for (NodeId v = 0; v < g_->num_nodes(); ++v) {
    if (!active.contains(v)) continue;
    if (static_cast<int>(lists_[v].size()) < active.degree(v) + 1) return false;
  }
  return true;
}

bool ListInstance::valid_solution(const std::vector<Color>& colors) const {
  for (NodeId v = 0; v < g_->num_nodes(); ++v) {
    if (colors[v] == kUncolored) return false;
    if (!std::binary_search(lists_[v].begin(), lists_[v].end(), colors[v])) return false;
    for (NodeId u : g_->neighbors(v)) {
      if (colors[u] == colors[v]) return false;
    }
  }
  return true;
}

}  // namespace dcolor
