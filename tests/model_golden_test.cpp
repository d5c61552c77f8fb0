// Golden pins of the Section-4 coloring in the two non-CONGEST models:
// Theorem 1.3 (congested clique) and Theorems 1.4/1.5 (MPC, linear and
// sublinear memory at alpha = 0.6).
//
// Every case pins the color checksum, every counter of the result
// struct and the full charged metrics. The inputs are the three `--quick`
// bench shapes at seed 42, a G(n,p) graph with random lists and a path of
// cliques. The path-coverage checks make sure the cases keep reaching the
// clique leader shipment after multi-bit passes, the MPC one-machine
// finish, the Lemma 4.2 finisher and a sublinear aggregation tree deeper
// than one level, so a changed input cannot silently drop a path. A
// deliberate change to either model's colors or charges must update
// these pins in the same commit and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/benchkit/verify.h"
#include "src/clique/clique_coloring.h"
#include "src/graph/generators.h"
#include "src/mpc/mpc_coloring.h"
#include "src/mpc/primitives.h"

namespace dcolor {
namespace {

struct Input {
  std::string name;
  Graph g;
  std::function<ListInstance(const Graph&)> lists;
};

std::vector<Input> inputs() {
  const auto plus_one = [](const Graph& g) { return ListInstance::delta_plus_one(g); };
  std::vector<Input> in;
  in.push_back({"clique_quick", make_near_regular(96, 8, 42), plus_one});
  in.push_back({"mpc_linear_quick", make_near_regular(128, 8, 42), plus_one});
  in.push_back({"mpc_sublinear_quick", make_near_regular(128, 4, 42), plus_one});
  in.push_back({"gnp_random_lists", make_gnp(80, 0.1, 7), [](const Graph& g) {
                  return ListInstance::random_lists(g, 3 * (g.max_degree() + 1), 11);
                }});
  in.push_back({"path_of_cliques", make_path_of_cliques(40, 3), plus_one});
  return in;
}

struct CliquePin {
  std::uint64_t colors_hash;
  int commit_cycles;
  int derand_passes;
  int final_subgraph_size;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t total_bits;
  int max_message_bits;
};

CliquePin clique_pin_of(const clique::CliqueColoringResult& r) {
  return {benchkit::checksum_values(r.colors), r.commit_cycles, r.derand_passes,
          r.final_subgraph_size, r.metrics.rounds, r.metrics.messages, r.metrics.total_bits,
          r.metrics.max_message_bits};
}

std::string to_string(const CliquePin& p) {
  std::ostringstream os;
  os << "{" << p.colors_hash << "ull, " << p.commit_cycles << ", " << p.derand_passes << ", "
     << p.final_subgraph_size << ", " << p.rounds << ", " << p.messages << ", " << p.total_bits
     << ", " << p.max_message_bits << "}";
  return os.str();
}

struct MpcPin {
  std::uint64_t colors_hash;
  int num_machines;
  std::int64_t memory_words;
  int commit_cycles;
  int derand_passes;
  bool finished_on_one_machine;
  int lemma42_passes;
  std::int64_t rounds;
  std::int64_t words_communicated;
  std::int64_t max_round_load;
};

MpcPin mpc_pin_of(const mpc::MpcColoringResult& r) {
  return {benchkit::checksum_values(r.colors), r.num_machines, r.memory_words,
          r.commit_cycles, r.derand_passes, r.finished_on_one_machine, r.lemma42_passes,
          r.metrics.rounds, r.metrics.words_communicated, r.metrics.max_round_load};
}

std::string to_string(const MpcPin& p) {
  std::ostringstream os;
  os << "{" << p.colors_hash << "ull, " << p.num_machines << ", " << p.memory_words << ", "
     << p.commit_cycles << ", " << p.derand_passes << ", "
     << (p.finished_on_one_machine ? "true" : "false") << ", " << p.lemma42_passes << ", "
     << p.rounds << ", " << p.words_communicated << ", " << p.max_round_load << "}";
  return os.str();
}

bool operator==(const CliquePin& a, const CliquePin& b) { return to_string(a) == to_string(b); }
bool operator==(const MpcPin& a, const MpcPin& b) { return to_string(a) == to_string(b); }

TEST(ModelGolden, CliqueReferenceOutputsAndCharges) {
  const std::vector<CliquePin> want = {
      {15122596286941188271ull, 2, 4, 0, 286, 4254, 54056, 13},
      {6685996939607305059ull, 2, 4, 0, 274, 5802, 73420, 13},
      {15821162764307774759ull, 1, 2, 24, 130, 2517, 26134, 16},
      {9645380232129245790ull, 1, 3, 1, 282, 3299, 51916, 16},
      {17063956860176024702ull, 1, 1, 2, 56, 1398, 11714, 9},
  };
  const std::vector<Input> in = inputs();
  ASSERT_EQ(in.size(), want.size());
  bool shipped_after_multibit = false;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const ListInstance inst = in[i].lists(in[i].g);
    const clique::CliqueColoringResult res = clique::clique_list_coloring(in[i].g, inst);
    EXPECT_TRUE(inst.valid_solution(res.colors)) << in[i].name;
    const CliquePin got = clique_pin_of(res);
    EXPECT_EQ(got, want[i]) << in[i].name << ": got " << to_string(got);
    // More commit cycles times color bits than passes: some pass fixed
    // several candidate bits at once before the leader shipment.
    shipped_after_multibit |= res.final_subgraph_size > 0 &&
                              res.derand_passes < res.commit_cycles * inst.color_bits();
  }
  EXPECT_TRUE(shipped_after_multibit);
}

TEST(ModelGolden, MpcLinearReferenceOutputsAndCharges) {
  const std::vector<MpcPin> want = {
      {1664097620165415936ull, 23, 448, 2, 8, false, 0, 397, 15793, 282},
      {3968218557065958639ull, 24, 576, 2, 8, false, 0, 189, 15588, 364},
      {14047605207070076771ull, 14, 560, 2, 6, false, 0, 119, 6800, 342},
      {15162368156402184552ull, 22, 424, 1, 6, false, 0, 370, 13271, 272},
      {13072137866529254876ull, 11, 524, 1, 2, true, 0, 40, 3145, 308},
  };
  const std::vector<Input> in = inputs();
  ASSERT_EQ(in.size(), want.size());
  bool one_machine = false;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const ListInstance inst = in[i].lists(in[i].g);
    const mpc::MpcColoringResult res = mpc::mpc_list_coloring_linear(in[i].g, inst);
    EXPECT_TRUE(inst.valid_solution(res.colors)) << in[i].name;
    const MpcPin got = mpc_pin_of(res);
    EXPECT_EQ(got, want[i]) << in[i].name << ": got " << to_string(got);
    one_machine |= res.finished_on_one_machine;
  }
  EXPECT_TRUE(one_machine);
}

TEST(ModelGolden, MpcSublinearReferenceOutputsAndCharges) {
  const std::vector<MpcPin> want = {
      {6252713697545588099ull, 159, 64, 2, 8, false, 0, 1085, 146980, 32},
      {8964740306549458087ull, 213, 64, 2, 8, false, 0, 1133, 205839, 32},
      {10503138255712943399ull, 159, 48, 1, 3, false, 1, 495, 68470, 32},
      {15731330469290224737ull, 87, 104, 2, 12, false, 0, 1085, 96905, 66},
      {11970622827401517533ull, 120, 44, 1, 2, false, 1, 276, 29094, 26},
  };
  const std::vector<Input> in = inputs();
  ASSERT_EQ(in.size(), want.size());
  bool lemma42 = false;
  bool deep_tree = false;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const ListInstance inst = in[i].lists(in[i].g);
    const mpc::MpcColoringResult res = mpc::mpc_list_coloring_sublinear(in[i].g, inst, 0.6);
    EXPECT_TRUE(inst.valid_solution(res.colors)) << in[i].name;
    const MpcPin got = mpc_pin_of(res);
    EXPECT_EQ(got, want[i]) << in[i].name << ": got " << to_string(got);
    lemma42 |= res.lemma42_passes > 0;
    // The run's own machine layout: rebuild its aggregation tree.
    mpc::MpcSystem sys(res.num_machines, res.memory_words);
    deep_tree |= res.commit_cycles > 0 && mpc::AggregationTree(sys).depth() > 1;
  }
  EXPECT_TRUE(lemma42);
  EXPECT_TRUE(deep_tree);
}

}  // namespace
}  // namespace dcolor
