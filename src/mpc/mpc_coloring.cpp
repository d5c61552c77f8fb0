#include "src/mpc/mpc_coloring.h"

#include <algorithm>
#include <cmath>

#include "src/coloring/baselines.h"
#include "src/coloring/segment_derand.h"
#include "src/mpc/primitives.h"
#include "src/util/bits.h"

namespace dcolor::mpc {
namespace {

// Splits an exchange with the given per-machine loads into as many rounds
// as the S-word budget requires.
void charged_exchange(MpcSystem& sys, const std::vector<std::int64_t>& out,
                      const std::vector<std::int64_t>& in) {
  const std::int64_t S = sys.memory_words();
  std::int64_t max_load = 1;
  for (std::int64_t x : out) max_load = std::max(max_load, x);
  for (std::int64_t x : in) max_load = std::max(max_load, x);
  const std::int64_t rounds = (max_load + S - 1) / S;
  for (std::int64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < sys.num_machines(); ++i) {
      const std::int64_t o = std::clamp<std::int64_t>(out[i] - r * S, 0, S);
      const std::int64_t rcv = std::clamp<std::int64_t>(in[i] - r * S, 0, S);
      if (o > 0 || rcv > 0) sys.load(i, o, rcv);
    }
    sys.advance_round();
  }
}

// Theorems 1.4/1.5's charges for one Section-4 commit cycle: machine
// exchanges split to the S-word budget, and one aggregation + broadcast
// over the machine tree per fixed segment.
class MpcCosts final : public Section4Costs {
 public:
  MpcCosts(MpcSystem& sys, const AggregationTree& tree, const Graph& g,
           const std::vector<int>& machine_of, int rounds_per_exchange)
      : sys_(sys),
        tree_(tree),
        g_(g),
        machine_of_(machine_of),
        rounds_per_exchange_(rounds_per_exchange) {}

  // (k1, |L|) across edge partners: 2 words per directed edge.
  void count_exchange(const std::vector<MultiwaySpec>& specs,
                      const std::vector<std::vector<NodeId>>& conflict, int /*b*/) override {
    std::vector<std::int64_t> out(sys_.num_machines(), 0), in(sys_.num_machines(), 0);
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      if (!specs[v].active) continue;
      out[machine_of_[v]] += 2 * static_cast<std::int64_t>(conflict[v].size());
      for (NodeId u : conflict[v]) in[machine_of_[u]] += 2;
    }
    charged_exchange(sys_, out, in);
    sys_.tick(rounds_per_exchange_ - 1);  // per-node aggregation trees (sublinear)
  }

  void fixed_segment() override {
    const std::vector<std::uint64_t> zero(sys_.num_machines(), 0);
    tree_.aggregate(sys_, zero, [](std::uint64_t a, std::uint64_t c) { return a + c; }, 2);
    tree_.broadcast(sys_, 1);
  }

  // One exchange: each newly colored node's color to all its neighbors.
  void commit_announcement(const std::vector<NodeId>& newly, const std::vector<Color>& /*colors*/,
                           const std::vector<bool>& /*active*/) override {
    std::vector<std::int64_t> out(sys_.num_machines(), 0), in(sys_.num_machines(), 0);
    for (NodeId v : newly) {
      out[machine_of_[v]] += static_cast<std::int64_t>(g_.degree(v));
      for (NodeId u : g_.neighbors(v)) in[machine_of_[u]] += 1;
    }
    charged_exchange(sys_, out, in);
  }

  // Lemma 4.2: edge machines need both endpoint lists (its Omega(n
  // Delta^2) total memory assumption), a list-sized exchange.
  void list_exchange(const ListInstance& inst,
                     const std::vector<std::vector<NodeId>>& conflict) const {
    std::vector<std::int64_t> out(sys_.num_machines(), 0), in(sys_.num_machines(), 0);
    for (NodeId v = 0; v < g_.num_nodes(); ++v) {
      if (conflict[v].empty()) continue;
      const std::int64_t lv = static_cast<std::int64_t>(inst.list(v).size());
      out[machine_of_[v]] += lv * static_cast<std::int64_t>(conflict[v].size());
      for (NodeId u : conflict[v]) in[machine_of_[u]] += lv;
    }
    charged_exchange(sys_, out, in);
  }

 private:
  MpcSystem& sys_;
  const AggregationTree& tree_;
  const Graph& g_;
  const std::vector<int>& machine_of_;
  int rounds_per_exchange_;
};

// Lemma 4.2: one multiway pass chooses a full color per node (fanout =
// whole list, unit counts); repeated until everyone is colored.
NodeId lemma42_pass(const Graph& g, ListInstance& inst, std::vector<bool>& active,
                    std::vector<Color>& colors, MpcCosts& costs, int id_bits, int lambda) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> conflict;
  const int delta_c = section4_conflicts(g, active, inst, conflict);
  std::size_t max_list = 1;
  for (NodeId v = 0; v < n; ++v) {
    if (active[v]) max_list = std::max(max_list, inst.list(v).size());
  }
  // The precision's color-bits factor becomes the list size: one pass
  // picks among whole lists.
  const int b = section4_precision_bits(delta_c, static_cast<int>(std::max<std::size_t>(max_list, 2)));

  // Conflicts occur on equal COLOR VALUES, not equal list indices: each
  // entry is its own subrange, keyed by its color.
  std::vector<MultiwaySpec> specs(n);
  for (NodeId v = 0; v < n; ++v) {
    specs[v].active = active[v];
    if (!active[v]) continue;
    const auto& L = inst.list(v);
    specs[v].counts.assign(L.size(), 1);
    specs[v].keys.assign(L.begin(), L.end());
    specs[v].bounds = multiway_bounds(specs[v].counts, b);
  }
  costs.list_exchange(inst, conflict);

  const SegmentDerandResult der =
      segment_derand_step(specs, conflict, id_bits, b, lambda, [&costs] { costs.fixed_segment(); });
  std::vector<Color> trial(n, kUncolored);
  for (NodeId v = 0; v < n; ++v) {
    if (active[v]) trial[v] = inst.list(v)[der.selected[v]];
  }
  for (NodeId v = 0; v < n; ++v) {
    std::erase_if(conflict[v], [&](NodeId u) { return trial[u] != trial[v]; });
  }
  return section4_commit(g, inst, conflict, trial, active, colors, costs);
}

MpcColoringResult run(const Graph& g, ListInstance inst, std::int64_t S, bool linear) {
  const NodeId n = g.num_nodes();
  MpcColoringResult res;
  res.colors.assign(n, kUncolored);
  if (n == 0) return res;

  // Machine count: Theta((m + n + total list size)/S), at least 1.
  std::int64_t input_words = 2 * n;
  for (NodeId v = 0; v < n; ++v) {
    input_words += 2 * g.degree(v) + static_cast<std::int64_t>(inst.list(v).size());
  }
  const int M = static_cast<int>(std::max<std::int64_t>(1, (4 * input_words + S - 1) / S));
  MpcSystem sys(M, S);
  AggregationTree tree(sys);
  res.num_machines = M;
  res.memory_words = S;

  // Input layout: sort edges and list entries to co-locate per node
  // (linear) / to contiguous machines (sublinear). Charged via mpc_sort.
  {
    Sharded records(M);
    int mi = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId u : g.neighbors(v)) {
        records[mi].push_back(Record{static_cast<std::uint64_t>(v),
                                     static_cast<std::uint64_t>(u)});
        mi = (mi + 1) % M;
      }
      for (Color c : inst.list(v)) {
        records[mi].push_back(Record{static_cast<std::uint64_t>(v),
                                     static_cast<std::uint64_t>(c) | (1ull << 40)});
        mi = (mi + 1) % M;
      }
    }
    mpc_sort(sys, records);
  }
  // Home machine per node: bin-packed by data size (in the linear regime
  // a node's full data must fit one machine).
  std::vector<int> machine_of(n, 0);
  {
    std::int64_t used = 0;
    int cur = 0;
    for (NodeId v = 0; v < n; ++v) {
      const std::int64_t need = 2 * g.degree(v) + static_cast<std::int64_t>(inst.list(v).size());
      if (linear) sys.check_storage(cur, need);
      if (used + need > S && cur + 1 < M) {
        cur = (cur + 1) % M;
        used = 0;
      }
      machine_of[v] = cur;
      used += need;
    }
  }

  std::vector<bool> active(n, true);
  NodeId uncolored = n;
  const int delta = std::max(g.max_degree(), 2);
  const int rounds_per_exchange = linear ? 1 : std::max(1, tree.depth());
  const int id_bits = ceil_log2(std::max<std::uint64_t>(static_cast<std::uint64_t>(n), 2));
  const int lambda =
      std::max(1, std::min<int>(id_bits + 1, floor_log2(static_cast<std::uint64_t>(S))));
  MpcCosts costs(sys, tree, g, machine_of, rounds_per_exchange);

  while (uncolored > 0) {
    if (linear) {
      // Final stage: residual fits one machine once <= n/Delta^2 nodes
      // (then <= n/Delta edges) remain.
      std::vector<std::int64_t> out(M, 0), in(M, 0);
      std::int64_t residual_words = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (!active[v]) continue;
        std::int64_t words = static_cast<std::int64_t>(inst.list(v).size());
        for (NodeId u : g.neighbors(v)) words += active[u] ? 2 : 0;
        out[machine_of[v]] += words;
        residual_words += words;
      }
      if (uncolored <= std::max<NodeId>(1, n / (delta * delta)) && residual_words <= S) {
        res.finished_on_one_machine = true;
        in[0] = residual_words;
        charged_exchange(sys, out, in);
        sys.check_storage(0, residual_words);
        greedy_color_uncolored(g, inst, res.colors);
        sys.tick(1);  // distribute the output
        break;
      }
    } else {
      // Sublinear finisher (Lemma 4.2) when Delta < n^{alpha/2}: the paper
      // runs O(log Delta) constant-fraction cycles and then switches.
      const double alpha_cap = std::sqrt(static_cast<double>(S));
      const int cycles_budget = std::max(1, ceil_log2(static_cast<std::uint64_t>(delta)) / 2);
      if (static_cast<double>(delta) < alpha_cap &&
          (uncolored <= std::max<NodeId>(1, n / (delta * delta)) ||
           res.commit_cycles >= cycles_budget)) {
        while (uncolored > 0) {
          ++res.lemma42_passes;
          uncolored -= lemma42_pass(g, inst, active, res.colors, costs, id_bits, lambda);
        }
        break;
      }
    }
    ++res.commit_cycles;
    uncolored -= section4_commit_cycle(g, inst, active, res.colors, /*step_bits=*/1, lambda, costs,
                                       &res.derand_passes);
  }
  res.metrics = sys.metrics();
  return res;
}

}  // namespace

MpcColoringResult mpc_list_coloring_linear(const Graph& g, ListInstance inst) {
  const std::int64_t S =
      std::max<std::int64_t>(64, 4 * (static_cast<std::int64_t>(g.num_nodes()) +
                                      g.max_degree() + 8));
  return run(g, std::move(inst), S, /*linear=*/true);
}

MpcColoringResult mpc_list_coloring_sublinear(const Graph& g, ListInstance inst, double alpha) {
  const double nn = std::max(4.0, static_cast<double>(g.num_nodes()));
  std::int64_t S = static_cast<std::int64_t>(std::pow(nn, alpha));
  // A machine must at least hold one node's record plus constant state.
  S = std::max<std::int64_t>(S, 4 * (g.max_degree() + 8));
  return run(g, std::move(inst), S, /*linear=*/false);
}

}  // namespace dcolor::mpc
