// The benchmark's four workloads: how each builds its inputs from a seed,
// runs one untraced solve, runs one traced solve through the timing
// decorators, and verifies a result. README.md explains why each
// workload exists and which layer it stresses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/coloring/list_instance.h"
#include "src/congest/metrics.h"
#include "src/graph/graph.h"

namespace perfbench {

// Inputs of one run. The graph lives on the heap because ListInstance
// keeps a pointer to it. `lists` is the pristine instance: every solve
// takes a copy, and verification checks against the original.
struct Instance {
  std::unique_ptr<dcolor::Graph> g;
  std::unique_ptr<dcolor::ListInstance> lists;
};

struct SolveResult {
  std::vector<dcolor::Color> colors;
  // Charged costs. For the MPC workload: rounds, words communicated, and
  // 64 x words as bits.
  dcolor::congest::Metrics metrics;
  // Non-empty when the solve threw (an MpcSystem violation, a precondition
  // failure); the solve then counts as failed.
  std::string error;
};

// Per-layer figures of one traced solve, keyed by metric name.
using LayerFigures = std::map<std::string, double>;

struct Workload {
  const char* name;
  // Engine threads the workload is defined at (clamped to nproc); 1 for
  // the single-threaded MPC workload.
  int threads;
  // Theorem 1.1 spans one BFS tree, so the graph must be connected.
  bool needs_connected;
  Instance (*make)(std::uint64_t seed);
  SolveResult (*solve)(const Instance& in, int threads);
  // One solve through the decorators: fills `layers` and the traced wall
  // time, transport construction included (it is also its own layer).
  SolveResult (*traced)(const Instance& in, int threads, LayerFigures* layers,
                        double* wall_ms);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// A valid list coloring against the pristine lists; `why` on failure.
bool verify(const Instance& in, const SolveResult& r, std::string* why);

// Equal charged costs: rounds, messages, bits and the widest message.
bool same_metrics(const dcolor::congest::Metrics& a, const dcolor::congest::Metrics& b);

}  // namespace perfbench
