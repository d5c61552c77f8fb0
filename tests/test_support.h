// Shared test utilities: deterministic RNG seeding, a reusable graph
// corpus, and coloring/MIS verifiers, so the suites stop re-implementing
// `proper_on_active`-style checkers locally.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace dcolor::test {

// Every suite that needs seeded randomness derives from this one constant
// so a failure reproduces bit-for-bit across machines and reruns.
inline constexpr std::uint64_t kTestSeed = 0xDC0102ull;

// Deterministic per-call-site stream: same salt -> same stream, always.
inline Rng make_rng(std::uint64_t salt = 0) { return Rng(kTestSeed ^ salt); }

struct NamedGraph {
  std::string name;
  Graph graph;
};

// The standard small corpus (cycle / grid / gnp / tree) used by the fast
// unit suites. Deterministic: seeded generators use kTestSeed-derived
// seeds only.
std::vector<NamedGraph> small_corpus();

// A larger corpus for stress / property-sweep suites: the small corpus
// plus denser and more adversarial shapes (complete, star, path of
// cliques, clustered, near-regular).
std::vector<NamedGraph> stress_corpus();

// The whole graph as an active subgraph view.
InducedSubgraph all_active(const Graph& g);

// True iff `col` is proper on the active subgraph (only edges with both
// endpoints active are checked). Works for partial colorings as long as
// distinct sentinel values are not shared between neighbors; use the
// partial overload below when uncolored nodes must be skipped.
bool proper_on_active(const InducedSubgraph& active, const std::vector<std::int64_t>& col);

// Partial-coloring variant: nodes carrying `uncolored` are ignored.
bool proper_partial_on_active(const InducedSubgraph& active, const std::vector<std::int64_t>& col,
                              std::int64_t uncolored);

// Unpacks the low `len` bits of `s`, LSB first — the seed layout the
// coin-family tests enumerate.
std::vector<std::uint8_t> seed_bits(std::uint64_t s, int len);

// Whether a node of the bitwise coin family (src/hash/bitwise_family.h)
// is still tight after the seed prefix `fixed`, computed from what the
// node knows alone: its input colour, its threshold and the fixed bits.
// Chunk t of the seed, w + 1 bits (a_t[0..w-1], then c_t), fixes output
// digit t = <a_t, colour> ^ c_t; the node is tight while every fixed
// digit equals digit t of its b-bit threshold (MSB first). Once a free
// node (0 < threshold < 2^b) is not tight, its coin is final.
bool bitwise_node_tight(std::uint64_t input_color, std::uint64_t threshold, int w, int b,
                        const std::vector<int>& fixed);

// True iff `in_mis` is an independent and maximal set on the active
// subgraph. (Thin wrapper over dcolor::is_mis so suites only need this
// header.)
bool valid_mis(const InducedSubgraph& active, const std::vector<bool>& in_mis);

}  // namespace dcolor::test
