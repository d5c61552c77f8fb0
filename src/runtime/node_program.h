// Vertex-program interface of the CONGEST executors: the ParallelEngine,
// and runtime::run over congest::Network (parallel_engine.h).
//
// A NodeProgram is the per-node half of a round-synchronous algorithm:
// `init` runs once per node before any round and may stage messages;
// `on_round` runs once per node per delivered round over that node's
// inbox and may stage messages for the next round. The engine guarantees
// that on_round for round r sees exactly the messages staged in the
// previous phase, and that the phase barrier is the only point at which
// cross-node writes become visible.
//
// Determinism contract: within a phase a node may read shared state only
// if no node writes it this phase, and may write shared state only at
// indices it owns (its own slot of a result vector). Programs that follow
// this rule produce bit-identical results and Metrics for every thread
// count — the property the parity tests in tests/runtime_engine_test.cpp
// enforce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace dcolor::runtime {

// One pre-sized inbox slot. Slot i of node v is owned by v's i-th CSR
// neighbor — that neighbor is the only writer, so sends are lock-free.
// `stamp` is the delivery epoch the payload belongs to; a slot is live
// only when its stamp matches the engine's current epoch, so delivery is
// a buffer swap with no clearing pass.
struct Slot {
  std::uint64_t payload = 0;
  std::int64_t stamp = -1;
};

// Read-only view of one node's inbox for the round being processed.
// Slot i corresponds to the node's i-th CSR neighbor whether or not that
// neighbor sent this round; `has(i)` distinguishes the two.
class Inbox {
 public:
  Inbox(const Slot* slots, const NodeId* neighbors, int degree, std::int64_t epoch)
      : slots_(slots), neighbors_(neighbors), degree_(degree), epoch_(epoch) {}

  int size() const { return degree_; }
  bool has(int i) const { return slots_[i].stamp == epoch_; }
  NodeId from(int i) const { return neighbors_[i]; }
  std::uint64_t payload(int i) const { return slots_[i].payload; }  // when has(i)

  bool empty() const {
    for (int i = 0; i < degree_; ++i) {
      if (slots_[i].stamp == epoch_) return false;
    }
    return true;
  }

  // f(NodeId from, std::uint64_t payload) over live slots, in CSR
  // (ascending neighbor id) order.
  template <typename F>
  void for_each(F&& f) const {
    for (int i = 0; i < degree_; ++i) {
      if (slots_[i].stamp == epoch_) f(neighbors_[i], slots_[i].payload);
    }
  }

 private:
  const Slot* slots_;
  const NodeId* neighbors_;
  int degree_;
  std::int64_t epoch_;
};

// Sparse-phase dispatch view: which nodes the engine should run this
// phase. `dense` (the default) dispatches every node; otherwise exactly
// the `count` ids at `nodes` (ascending), which must stay valid until the
// phase barrier. Returning a view over a caller-owned flat array — a
// per-level slice of a tree's CSR roster, a reusable scratch vector —
// costs nothing per phase, which is the point: rosters replaced the
// per-round O(n) scans of the level-synchronous tree waves.
struct Roster {
  const NodeId* nodes = nullptr;
  std::size_t count = 0;
  bool dense = true;

  static Roster all() { return Roster{}; }
  static Roster none() { return Roster{nullptr, 0, false}; }
  static Roster of(const NodeId* data, std::size_t n) { return Roster{data, n, false}; }
  static Roster of(const std::vector<NodeId>& v) { return Roster{v.data(), v.size(), false}; }

  std::int64_t size_or(std::int64_t dense_size) const {
    return dense ? dense_size : static_cast<std::int64_t>(count);
  }
};

class Outbox;  // defined with the engine in parallel_engine.h

class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  // Round-0 action; sends staged here are delivered in round 1.
  virtual void init(NodeId v, Outbox& out) = 0;

  // Called after each delivery. `round` is 1-based within the current
  // ParallelEngine::run; `in` holds the messages staged in the previous
  // phase for this node.
  virtual void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) = 0;

  // Termination predicate, called on the coordinator thread after init
  // (rounds == 0) and after each completed round; return true to stop.
  // Non-const so programs can consume per-phase progress flags.
  virtual bool done(std::int64_t rounds) = 0;

  // Optional sparse-phase hint, called on the coordinator thread before
  // each phase (`round` 0 = init, then 1-based like on_round). A
  // non-dense return promises that every node NOT listed is a no-op this
  // phase: its hook would stage no sends and change no observable state.
  // The engine then dispatches only the listed nodes (ascending ids),
  // which cannot perturb results or Metrics at any thread count — it
  // merely skips work the program declared dead. Level-synchronous tree
  // programs cut a factor depth(tree) this way. Return Roster::all() (the
  // default) for dense phases; the listed ids must stay valid until the
  // phase barrier.
  virtual Roster roster(std::int64_t round) {
    (void)round;
    return Roster::all();
  }
};

}  // namespace dcolor::runtime
