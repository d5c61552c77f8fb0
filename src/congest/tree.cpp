#include "src/congest/tree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

namespace dcolor::congest {

void bind_cluster_tree(const Graph& g, const Cluster& cluster, TreeData* out) {
  std::size_t roots = 0;
  for (std::size_t i = 0; i < cluster.tree_nodes.size(); ++i) {
    const NodeId v = cluster.tree_nodes[i];
    const NodeId p = cluster.tree_parent[i];
    if (p < 0) {
      if (v != cluster.root) throw CongestViolation("cluster tree has a parentless non-root");
      ++roots;
    } else if (!g.has_edge(v, p)) {
      throw CongestViolation("cluster tree edge is not a graph edge (send over non-edge)");
    }
  }
  if (roots != 1) throw CongestViolation("cluster tree must have exactly one parentless root");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  out->level.resize(n);  // no-op after the first bind
  out->parent.resize(n);
  out->root = cluster.root;
  out->depth = cluster.tree_depth;
  for (std::size_t i = 0; i < cluster.tree_nodes.size(); ++i) {
    const NodeId v = cluster.tree_nodes[i];
    const NodeId p = cluster.tree_parent[i];
    out->parent[v] = p;
    out->level[v] = p < 0 ? 0 : out->level[p] + 1;
  }
  index_tree_levels(cluster.tree_nodes, out);
}

void index_tree_levels(std::span<const NodeId> nodes, TreeData* out) {
  for (const NodeId v : nodes) {
    assert(out->level[v] >= 0 && "tree node without a level");
    out->depth = std::max(out->depth, out->level[v]);
  }
  // Counting sort by level, using level_off as the fill cursors and
  // shifting it back afterwards; then ascending ids within each level.
  std::vector<std::int64_t>& off = out->level_off;
  off.assign(static_cast<std::size_t>(out->depth) + 2, 0);
  for (const NodeId v : nodes) ++off[static_cast<std::size_t>(out->level[v]) + 1];
  for (std::size_t l = 1; l < off.size(); ++l) off[l] += off[l - 1];
  out->level_nodes.resize(nodes.size());
  for (const NodeId v : nodes) {
    out->level_nodes[static_cast<std::size_t>(off[static_cast<std::size_t>(out->level[v])]++)] = v;
  }
  for (std::size_t l = off.size() - 1; l > 0; --l) off[l] = off[l - 1];
  off[0] = 0;
  for (std::size_t l = 0; l + 1 < off.size(); ++l) {
    std::sort(out->level_nodes.begin() + off[l], out->level_nodes.begin() + off[l + 1]);
  }
  out->position.resize(out->level.size());  // no-op after the first bind
  for (std::size_t i = 0; i < out->level_nodes.size(); ++i) {
    out->position[static_cast<std::size_t>(out->level_nodes[i])] = static_cast<NodeId>(i);
  }
}

namespace {

// min(total, 2^64 - 1): the saturating sum of the encodings.
std::uint64_t saturate(unsigned __int128 total) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  return total >= kMax ? kMax : static_cast<std::uint64_t>(total);
}

// The full recompute the update's assertion checks against.
[[maybe_unused]] unsigned __int128 recomputed_total(const TreeData& tree,
                                                    const std::vector<long double>& values) {
  unsigned __int128 total = 0;
  for (const NodeId v : tree.level_nodes) total += to_fixed(values[v]);
  return total;
}

}  // namespace

std::uint64_t TreeFixedSum::refresh(const TreeData& tree, const std::vector<long double>& values) {
  enc_.resize(tree.level_nodes.size());
  total_ = 0;
  for (std::size_t i = 0; i < enc_.size(); ++i) {
    enc_[i] = to_fixed(values[tree.level_nodes[i]]);
    total_ += enc_[i];
  }
  valid_ = true;
  return saturate(total_);
}

std::uint64_t TreeFixedSum::update(const TreeData& tree, const std::vector<long double>& values,
                                   std::span<const NodeId> changed) {
  if (!valid_) return refresh(tree, values);
  assert(enc_.size() == tree.level_nodes.size() && "update over a rebound tree");
  for (const NodeId v : changed) {
    if (!tree.contains(v)) continue;
    std::uint64_t& e = enc_[static_cast<std::size_t>(tree.position[v])];
    total_ -= e;
    e = to_fixed(values[v]);
    total_ += e;
  }
  assert(total_ == recomputed_total(tree, values) && "a changed node is missing from `changed`");
  return saturate(total_);
}

Metrics wave_cost(const TreeData& tree, int value_bits, int bandwidth) {
  const auto edges = static_cast<std::int64_t>(tree.level_nodes.size()) - 1;
  const int message_bits = std::min({value_bits, 64, bandwidth});
  Metrics m;
  m.rounds = tree.depth + (value_bits + bandwidth - 1) / bandwidth - 1;
  m.messages = edges;
  m.total_bits = edges * message_bits;
  if (edges > 0) m.max_message_bits = message_bits;
  return m;
}

Metrics pair_wave_cost(const TreeData& tree, TreeForm form, int bandwidth) {
  assert(form != TreeForm::kUnbound && "build_tree or bind_cluster first");
  // Each wave also carries the 1-bit OR of "this node is free and tight".
  if (form == TreeForm::kCluster) return wave_cost(tree, 128 + 1, bandwidth);
  Metrics m = wave_cost(tree, 64 + 1, bandwidth);
  m.rounds += 1;  // the unquantized second sum's extra round
  return m;
}

namespace {

// The kBfs form's second sum: every entry of values1, in index order.
long double index_order_sum(const std::vector<long double>& values) {
  long double sum = 0.0L;
  for (const long double v : values) sum += v;
  return sum;
}

// A stateless recompute of the pair PairWave::aggregate returns.
[[maybe_unused]] std::pair<long double, long double> recomputed_pair(
    const TreeData& tree, TreeForm form, const std::vector<long double>& values0,
    const std::vector<long double>& values1) {
  auto fixed_sum = [&](const std::vector<long double>& values) {
    return from_fixed(saturate(recomputed_total(tree, values)));
  };
  return {fixed_sum(values0),
          form == TreeForm::kCluster ? fixed_sum(values1) : index_order_sum(values1)};
}

}  // namespace

std::pair<long double, long double> PairWave::aggregate(
    const TreeData& tree, TreeForm form, int bandwidth, const std::vector<long double>& values0,
    const std::vector<long double>& values1, std::optional<std::span<const NodeId>> changed,
    Metrics* cost) {
  *cost = pair_wave_cost(tree, form, bandwidth);
  if (changed && changed->empty() && last_) {
    assert(*last_ == recomputed_pair(tree, form, values0, values1) &&
           "a value moved although the update lists no node");
    return *last_;
  }
  auto sum = [&](TreeFixedSum& s, const std::vector<long double>& values) {
    return from_fixed(changed ? s.update(tree, values, *changed) : s.refresh(tree, values));
  };
  const long double sum0 = sum(sum0_, values0);
  last_ = {sum0, form == TreeForm::kCluster ? sum(sum1_, values1) : index_order_sum(values1)};
  return *last_;
}

std::uint64_t to_fixed(long double x) {
  assert(x >= 0.0L);
  if constexpr (std::numeric_limits<long double>::digits == 64 &&
                std::endian::native == std::endian::little) {
    // x87 extended: a 64-bit significand m with an explicit integer bit,
    // then sign and a 15-bit exponent e, so x * 2^32 == m * 2^(e - 16414).
    // Integer decode of the expression below, exact for every finite
    // non-negative x and +inf: round half away from zero as llroundl
    // does, 2^63 for scaled values in [2^63, 2^64 - 1), where llroundl
    // overflows to LLONG_MIN, and ~0 from 2^64 - 1 on.
    std::uint64_t m = 0;
    std::uint16_t se = 0;
    std::memcpy(&m, &x, sizeof m);
    std::memcpy(&se, reinterpret_cast<const unsigned char*>(&x) + sizeof m, sizeof se);
    const int exp2 = (se & 0x7fff) - 16414;
    if (exp2 > 0) return ~std::uint64_t{0};
    if (exp2 == 0) return m == ~std::uint64_t{0} ? m : std::uint64_t{1} << 63;
    const int shift = -exp2;
    if (shift > 64) return 0;
    const std::uint64_t half = (m >> (shift - 1)) & 1;
    return (shift == 64 ? 0 : m >> shift) + half;
  } else {
    const long double scaled = x * 4294967296.0L;  // 2^32
    if (scaled >= 18446744073709551615.0L) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(llroundl(scaled));
  }
}

long double from_fixed(std::uint64_t f) {
  return static_cast<long double>(f) / 4294967296.0L;
}

}  // namespace dcolor::congest
