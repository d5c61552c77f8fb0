#include "src/graph/io.h"

#include <istream>
#include <limits>
#include <ostream>

namespace dcolor {
namespace {

constexpr const char* kPalette[] = {"lightblue",  "lightgreen", "lightsalmon", "gold",
                                    "plum",       "khaki",      "lightcyan",   "pink",
                                    "palegreen",  "wheat",      "lavender",    "coral"};
constexpr int kPaletteSize = 12;

}  // namespace

void write_dot(std::ostream& os, const Graph& g, const std::vector<std::int64_t>* colors) {
  os << "graph G {\n  node [style=filled];\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  " << v;
    if (colors != nullptr) {
      const std::int64_t c = (*colors)[v];
      os << " [label=\"" << v << ":" << c << "\", fillcolor="
         << kPalette[c >= 0 ? c % kPaletteSize : 0] << "]";
    }
    os << ";\n";
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (v < u) os << "  " << v << " -- " << u << ";\n";
    }
  }
  os << "}\n";
}

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << " " << g.num_edges() << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (v < u) os << v << " " << u << "\n";
    }
  }
}

std::optional<Graph> read_edge_list(std::istream& is) {
  std::int64_t n = 0, m = 0;
  if (!(is >> n >> m) || n < 0 || m < 0) return std::nullopt;
  if (n > std::numeric_limits<NodeId>::max()) return std::nullopt;
  // m is untrusted: the list grows only with the edges actually read.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t u = 0, v = 0;
    if (!(is >> u >> v) || u < 0 || v < 0 || u >= n || v >= n) return std::nullopt;
    edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return Graph::from_edges(static_cast<NodeId>(n), std::move(edges));
}

}  // namespace dcolor
