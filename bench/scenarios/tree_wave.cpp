// The Lemma 2.6 wave kernel in isolation.
//
//   congest.tree_wave.sum — repeated Q32.32 pair-sum convergecasts over
//     a BFS tree of a connected G(n,p), each as one full-form
//     cluster aggregate_pair runs it: two TreeFixedSum refreshes, which
//     re-encode every tree node, and one closed-form charge of the
//     cluster form's pair_wave_cost (a 129-bit wave: the two sums and
//     the liveness bit) on the Network. The transport runs every seed-fixing wave through
//     this kernel on both executors: the first seed bit of each phase,
//     and every bit of the derandomized MIS, take this full form; the
//     other bits of theorem11.* and corollary12.* update only the nodes
//     whose sums moved.
//
// The sums verify against a saturating total in node-id order (the
// kernel sums in level order), so a sweep that drops or double-counts a
// node fails the bench.
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/scenarios/scenario_common.h"
#include "src/benchkit/scenario.h"
#include "src/congest/network.h"
#include "src/congest/tree.h"
#include "src/runtime/derand_program.h"
#include "src/util/bits.h"

namespace dcolor {
namespace {

using benchkit::Outcome;
using benchkit::Prepared;
using benchkit::RunConfig;
using benchkit::Scenario;

// Enough waves that the kernel, not the closure's setup, is timed.
constexpr int kWaves = 32;

REGISTER_SCENARIO(Scenario{
    "congest.tree_wave.sum",
    "Repeated Q32.32 pair-sum waves through the Lemma 2.6 kernel over a BFS tree",
    "gnp", "tree_wave", "network", /*parity=*/"", /*scalable=*/false,
    [](const RunConfig& c) {
      const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 20000, 4000));
      auto g = std::make_shared<Graph>(bench_scenarios::connected_gnp(n, 8.0, c.seed));
      auto net = std::make_shared<congest::Network>(*g);
      auto tree = std::make_shared<congest::TreeData>();
      runtime::build_tree_data(*net, 0, tree.get());
      // Two value profiles so consecutive sweeps do not aggregate the
      // exact same operands; values in [0, 1) keep every encoding exact.
      auto v0 = std::make_shared<std::vector<long double>>(static_cast<std::size_t>(n));
      auto v1 = std::make_shared<std::vector<long double>>(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        (*v0)[v] = static_cast<long double>(v % 97) / 128.0L;
        (*v1)[v] = static_cast<long double>(v % 41) / 64.0L;
      }
      std::uint64_t want0 = 0, want1 = 0;
      for (NodeId v = 0; v < n; ++v) {
        want0 = sat_add_u64(want0, congest::to_fixed((*v0)[v]));
        want1 = sat_add_u64(want1, congest::to_fixed((*v1)[v]));
      }
      auto sums = std::make_shared<std::array<congest::TreeFixedSum, 2>>();
      return Prepared{[g, net, tree, v0, v1, sums, want0, want1, seed = c.seed] {
        net->reset_metrics();
        std::uint64_t acc = 0;
        bool ok = true;
        for (int w = 0; w < kWaves; ++w) {
          const std::uint64_t s0 = (*sums)[0].refresh(*tree, *v0);
          const std::uint64_t s1 = (*sums)[1].refresh(*tree, *v1);
          net->charge(congest::pair_wave_cost(*tree, congest::TreeForm::kCluster,
                                              net->bandwidth_bits()));
          ok = ok && s0 == want0 && s1 == want1;
          acc ^= s0 + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(w + 1) + s1;
        }
        Outcome o;
        o.n = g->num_nodes();
        o.m = g->num_edges();
        o.seed = seed;
        o.metrics = net->metrics();
        o.checksum = acc;
        o.verified = ok;
        return o;
      }};
    }});

}  // namespace
}  // namespace dcolor
