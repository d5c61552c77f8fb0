#include "src/coloring/segment_derand.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/coloring/partial_coloring.h"  // precision_bits_for
#include "src/hash/coin_family.h"           // threshold_for
#include "src/obs/obs.h"
#include "src/util/bits.h"

namespace dcolor {
namespace {

struct ChunkForm {
  std::uint64_t free_mask = 0;
  int known = 0;
};

// Pr[h in [lo,hi)] given determined output digits `prefix` (there are
// b - r of them) and r uniform digits to come.
inline long double interval_prob(std::uint64_t lo, std::uint64_t hi, std::uint64_t prefix,
                                 int r) {
  const std::uint64_t lo_range = prefix << r;
  const std::uint64_t hi_range = lo_range + (std::uint64_t{1} << r);
  const std::uint64_t a = lo > lo_range ? lo : lo_range;
  const std::uint64_t b2 = hi < hi_range ? hi : hi_range;
  if (a >= b2) return 0.0L;
  return ldexpl(static_cast<long double>(b2 - a), -r);
}

inline void substitute(ChunkForm& f, int from_var, int count, int assignment) {
  for (int k = 0; k < count; ++k) {
    const int var = from_var + k;
    if (f.free_mask >> var & 1) {
      f.free_mask &= ~(std::uint64_t{1} << var);
      if (assignment >> k & 1) f.known ^= 1;
    }
  }
}

}  // namespace

std::vector<std::uint64_t> multiway_bounds(const std::vector<int>& counts, int b) {
  std::uint64_t size = 0;
  for (int c : counts) size += static_cast<std::uint64_t>(c);
  std::vector<std::uint64_t> bounds(counts.size() + 1, 0);
  std::uint64_t cum = 0;
  for (std::size_t g = 0; g < counts.size(); ++g) {
    cum += static_cast<std::uint64_t>(counts[g]);
    bounds[g + 1] = threshold_for(cum, size, b);
  }
  return bounds;
}

namespace {

// The body of segment_derand_step, out of line so that the phase span
// around it leaves the code generated for these loops unchanged.
[[gnu::noinline]] SegmentDerandResult fix_seed_segments(
    const std::vector<MultiwaySpec>& specs, const std::vector<std::vector<NodeId>>& conflict,
    int w, int b, int lambda, const std::function<void()>& on_segment) {
  const NodeId n = static_cast<NodeId>(specs.size());
  SegmentDerandResult res;
  res.selected.assign(n, -1);

  std::vector<std::uint64_t> hash_prefix(n, 0);
  std::vector<ChunkForm> form(n);
  const std::uint64_t a_mask = (w >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);

  for (int t = 0; t < b; ++t) {
    for (NodeId v = 0; v < n; ++v) {
      form[v].free_mask = (static_cast<std::uint64_t>(v) & a_mask) | (std::uint64_t{1} << w);
      form[v].known = 0;
    }
    int bit_pos = 0;
    while (bit_pos < w + 1) {
      const int seg = std::min(lambda, w + 1 - bit_pos);
      const int num_cand = 1 << seg;
      long double best_val = 0;
      int best_r = -1;
      for (int R = 0; R < num_cand; ++R) {
        long double sum = 0;
        for (NodeId v = 0; v < n; ++v) {
          if (!specs[v].active) continue;
          ChunkForm fv = form[v];
          substitute(fv, bit_pos, seg, R);
          const int r_after = b - t - 1;
          for (const NodeId u : conflict[v]) {
            ChunkForm fu = form[u];
            substitute(fu, bit_pos, seg, R);
            long double q[2][2] = {{0, 0}, {0, 0}};
            if (fv.free_mask == 0 && fu.free_mask == 0) {
              q[fv.known][fu.known] = 1.0L;
            } else if (fv.free_mask == 0) {
              q[fv.known][0] = q[fv.known][1] = 0.5L;
            } else if (fu.free_mask == 0) {
              q[0][fu.known] = q[1][fu.known] = 0.5L;
            } else if (fv.free_mask == fu.free_mask) {
              const int delta = fv.known ^ fu.known;
              q[0][delta] = q[1][1 ^ delta] = 0.5L;
            } else {
              q[0][0] = q[0][1] = q[1][0] = q[1][1] = 0.25L;
            }
            auto joint_pg = [&](std::size_t gv, std::size_t gu) {
              long double p_both = 0;
              for (int x = 0; x < 2; ++x) {
                for (int y = 0; y < 2; ++y) {
                  if (q[x][y] == 0.0L) continue;
                  const long double pv = interval_prob(
                      specs[v].bounds[gv], specs[v].bounds[gv + 1],
                      (hash_prefix[v] << 1) | static_cast<unsigned>(x), r_after);
                  const long double pu = interval_prob(
                      specs[u].bounds[gu], specs[u].bounds[gu + 1],
                      (hash_prefix[u] << 1) | static_cast<unsigned>(y), r_after);
                  p_both += q[x][y] * pv * pu;
                }
              }
              return p_both;
            };
            // Every shared color key is one conflict event. An empty
            // subrange at u has equal bounds and adds an exact +0.
            const auto& kv = specs[v].keys;
            const auto& ku = specs[u].keys;
            std::size_t gv = 0, gu = 0;
            while (gv < kv.size() && gu < ku.size()) {
              if (kv[gv] < ku[gu]) {
                ++gv;
              } else if (kv[gv] > ku[gu]) {
                ++gu;
              } else {
                const int kg = specs[v].counts[gv];
                if (kg != 0) sum += joint_pg(gv, gu) / kg;
                ++gv;
                ++gu;
              }
            }
          }
        }
        if (best_r < 0 || sum < best_val) {
          best_val = sum;
          best_r = R;
        }
      }
      for (NodeId v = 0; v < n; ++v) substitute(form[v], bit_pos, seg, best_r);
      bit_pos += seg;
      ++res.segments_fixed;
      on_segment();
    }
    for (NodeId v = 0; v < n; ++v) {
      assert(form[v].free_mask == 0);
      hash_prefix[v] = (hash_prefix[v] << 1) | static_cast<unsigned>(form[v].known);
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    if (!specs[v].active) continue;
    const std::uint64_t h = hash_prefix[v];
    for (std::size_t g = 0; g < specs[v].counts.size(); ++g) {
      if (h >= specs[v].bounds[g] && h < specs[v].bounds[g + 1]) {
        res.selected[v] = static_cast<int>(g);
        break;
      }
    }
    assert(res.selected[v] >= 0 && specs[v].counts[res.selected[v]] > 0);
  }
  return res;
}

}  // namespace

SegmentDerandResult segment_derand_step(const std::vector<MultiwaySpec>& specs,
                                        const std::vector<std::vector<NodeId>>& conflict,
                                        int w, int b, int lambda,
                                        const std::function<void()>& on_segment) {
  obs::Span span(obs::kCatPhase, "derand.math");
  return fix_seed_segments(specs, conflict, w, b, lambda, on_segment);
}

int section4_conflicts(const Graph& g, const std::vector<bool>& active, ListInstance& inst,
                       std::vector<std::vector<NodeId>>& conflict) {
  const NodeId n = g.num_nodes();
  conflict.assign(n, {});
  int delta_c = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (active[u]) conflict[v].push_back(u);
    }
    delta_c = std::max(delta_c, static_cast<int>(conflict[v].size()));
    inst.trim_list(v, conflict[v].size() + 1);
  }
  return delta_c;
}

int section4_precision_bits(int max_degree, int width) {
  return std::max(4, precision_bits_for(max_degree, width, /*avoid_mis=*/true));
}

NodeId section4_commit(const Graph& g, ListInstance& inst,
                       const std::vector<std::vector<NodeId>>& conflict,
                       const std::vector<Color>& candidate, std::vector<bool>& active,
                       std::vector<Color>& colors, Section4Costs& costs) {
  std::vector<NodeId> newly;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (active[v] && section4_keeps(v, conflict[v])) newly.push_back(v);
  }
  if (newly.empty()) {
    throw std::logic_error("Section-4 commit made no progress (potential bound violated)");
  }
  for (NodeId v : newly) {
    colors[v] = candidate[v];
    active[v] = false;
  }
  costs.commit_announcement(newly, colors, active);
  for (NodeId v : newly) {
    for (NodeId u : g.neighbors(v)) {
      if (active[u]) inst.remove_color(u, colors[v]);
    }
  }
  return static_cast<NodeId>(newly.size());
}

NodeId section4_commit_cycle(const Graph& g, ListInstance& inst, std::vector<bool>& active,
                             std::vector<Color>& colors, int step_bits, int lambda,
                             Section4Costs& costs, int* derand_passes) {
  const NodeId n = g.num_nodes();
  const int W = inst.color_bits();
  const int w = ceil_log2(std::max<std::uint64_t>(static_cast<std::uint64_t>(n), 2));
  std::vector<std::vector<NodeId>> conflict;
  const int b = section4_precision_bits(section4_conflicts(g, active, inst, conflict), W);

  // Candidate range [lo, hi) of each active node's sorted list: the
  // entries sharing the prefix fixed so far.
  std::vector<int> lo(n, 0), hi(n, 0);
  std::vector<MultiwaySpec> specs(n);
  for (NodeId v = 0; v < n; ++v) {
    specs[v].active = active[v];
    if (active[v]) hi[v] = static_cast<int>(inst.list(v).size());
  }
  for (int ell = 0; ell < W;) {
    ++*derand_passes;
    const int step = std::min(step_bits, W - ell);
    // Subrange g holds the range's entries whose next `step` bits are g;
    // its key is that extended prefix, first + g.
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const auto& L = inst.list(v);
      const std::uint64_t first =
          msb_prefix(static_cast<std::uint64_t>(L[lo[v]]), ell, W) << step;
      specs[v].counts.assign(std::size_t{1} << step, 0);
      for (int i = lo[v]; i < hi[v]; ++i) {
        ++specs[v].counts[msb_prefix(static_cast<std::uint64_t>(L[i]), ell + step, W) - first];
      }
      specs[v].keys.resize(specs[v].counts.size());
      std::iota(specs[v].keys.begin(), specs[v].keys.end(), first);
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    costs.count_exchange(specs, conflict, b);
    const SegmentDerandResult der =
        segment_derand_step(specs, conflict, w, b, lambda, [&costs] { costs.fixed_segment(); });

    // The seed is public and so are the exchanged counts: every node
    // applies its own and its conflict neighbors' digits locally.
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const int sel = der.selected[v];
      for (int g_below = 0; g_below < sel; ++g_below) lo[v] += specs[v].counts[g_below];
      hi[v] = lo[v] + specs[v].counts[sel];
      std::erase_if(conflict[v], [&](NodeId u) { return der.selected[u] != sel; });
    }
    ell += step;
  }

  std::vector<Color> candidate(n, kUncolored);
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    assert(hi[v] - lo[v] == 1);
    candidate[v] = inst.list(v)[lo[v]];
  }
  return section4_commit(g, inst, conflict, candidate, active, colors, costs);
}

}  // namespace dcolor
