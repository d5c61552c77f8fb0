// Parallel deterministic executor for NodeProgram-form CONGEST algorithms.
//
// It is one of the two executors of a NodeProgram; the other,
// runtime::run over congest::Network (declared below), is the strict
// sequential reference. The ParallelEngine owns the round loop and calls
// the program's per-node hooks over a fixed thread pool. Inboxes are
// CSR-backed and double-buffered — one pre-sized slot per directed edge,
// each slot written only by its one sender — so a send is a lock-free
// write to the receiver's owned slot and delivery is a buffer swap
// (stamps make clearing unnecessary).
//
// The engine enforces the same CONGEST contract as congest::Network
// (bandwidth ceiling, declared-bits-cover-payload, non-edge rejection,
// one message per directed edge per round; violations throw
// congest::CongestViolation) and charges the same Metrics: for programs
// that follow the NodeProgram determinism contract, rounds, messages, bit
// totals and results are bit-identical at every thread count.
//
// The round loop is allocation-free in the steady state: phase dispatch
// reuses one pre-built std::function (no per-phase type erasure), and
// phases whose dispatch width is at or below kSerialPhaseCutoff run
// inline on the coordinator — same chunks, same order, same merge —
// skipping the pool wakeup entirely (tests/alloc_audit_test.cpp holds the
// loop to zero steady-state allocations).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/graph/graph.h"
#include "src/runtime/node_program.h"
#include "src/runtime/thread_pool.h"

namespace dcolor::runtime {

class ParallelEngine;

// Runs `program` to completion on the sequential simulator, with the
// contract of ParallelEngine::run: an init phase, then one
// Network::advance_round and one on_round phase per round until
// program.done(), and std::logic_error for sends staged in the phase
// after which done() fires. Every node is dispatched in every phase, in
// ascending id order, and roster() is never called, so a program whose
// roster leaves out a live node gives different results on the two
// executors. Each send goes through Network::send and its checks; each
// Inbox is built from Network::inbox(v). Charges exactly what the
// engine charges. Returns the number of rounds the run charged.
std::int64_t run(congest::Network& net, NodeProgram& program);

// ParallelEngine::run, so that code over either executor can call run().
std::int64_t run(ParallelEngine& eng, NodeProgram& program);

// Per-node send handle passed to NodeProgram hooks; valid only for the
// duration of the hook invocation it was handed to. Sends go to the
// engine's inbox slots, or through Network::send under the Network
// runner.
class Outbox {
 public:
  // Stage a message to neighbor `to` (O(log deg) edge validation, like
  // congest::Network::send). Throws CongestViolation on non-edges.
  void send(NodeId to, std::uint64_t payload, int bits);

  // Stage a message to this node's nth CSR neighbor — O(1), for senders
  // that already iterate their adjacency by index.
  void send_nth(int nth, std::uint64_t payload, int bits);

  // Stage the same message to every neighbor.
  void send_all(std::uint64_t payload, int bits);

 private:
  friend class ParallelEngine;
  friend std::int64_t run(congest::Network& net, NodeProgram& program);
  Outbox(ParallelEngine* eng, void* worker) : eng_(eng), worker_(worker) {}
  explicit Outbox(congest::Network* net) : net_(net) {}

  ParallelEngine* eng_ = nullptr;
  void* worker_ = nullptr;  // ParallelEngine::WorkerState of the executing worker
  congest::Network* net_ = nullptr;  // set under the Network runner only
  NodeId self_ = 0;
};

class ParallelEngine {
 public:
  // Bandwidth convention matches congest::Network: 2*ceil(log2 n) + 16
  // when bandwidth_bits <= 0.
  explicit ParallelEngine(const Graph& g, int num_threads = 1, int bandwidth_bits = 0);

  const Graph& graph() const { return *g_; }
  int bandwidth_bits() const { return bandwidth_; }
  int num_threads() const { return pool_.num_threads(); }

  // The engine's fixed thread pool. Exposed so schedulers can dispatch
  // independent work (e.g. concurrent per-cluster engine runs of one
  // decomposition color class) over the same threads via
  // ThreadPool::run_tasks — never call it from inside a NodeProgram hook
  // (the pool is mid-dispatch there and would deadlock).
  ThreadPool& pool() { return pool_; }

  // Executes `program` to completion: an init phase, then deliver +
  // on_round phases until program.done(). Each phase charges one round.
  // If any node throws, the exception of the smallest-id throwing node is
  // rethrown after the phase barrier (deterministic across thread
  // counts). Sends staged in the phase after which done() fires have no
  // delivery round — that is a program bug and throws std::logic_error.
  // The engine is reusable: each run gets a fresh stamp space, so a
  // completed (or thrown) run cannot leak messages into the next one.
  // Returns the number of rounds this run charged.
  std::int64_t run(NodeProgram& program);

  // Charged idle rounds (pipelined chunks etc.), as Network::tick.
  void tick(std::int64_t rounds) { metrics_.rounds += rounds; }

  // Charges closed-form traffic (a Lemma 2.6 tree wave), as Network::charge.
  void charge(const congest::Metrics& m) { metrics_.merge(m); }

  const congest::Metrics& metrics() const { return metrics_; }
  // Delivery epochs are monotonic and independent of the round counter,
  // so resetting metrics cannot alias stale inbox stamps.
  void reset_metrics() { metrics_ = congest::Metrics{}; }

  // Phases dispatching at most this many nodes run inline on the
  // coordinator instead of waking the pool: identical chunks in identical
  // order, so results and Metrics cannot differ — only the condvar
  // round-trip disappears. Sparse rostered phases (the MIS classes, the
  // BFS flood frontier) are the common case this serves.
  static constexpr std::size_t kSerialPhaseCutoff = 2048;

 private:
  friend class Outbox;

  struct WorkerState {
    congest::Metrics metrics;
    NodeId fail_node = -1;
    std::exception_ptr error;
  };

  Slot* staging() { return bufs_[cur_ ^ 1].data(); }
  const Slot* delivered() const { return bufs_[cur_].data(); }

  void stage(NodeId from, int nth, std::uint64_t payload, int bits, WorkerState& ws);

  // per_node(NodeId, Outbox&); defined in .cpp. A non-dense roster
  // restricts the dispatch to the listed nodes (the program vouches that
  // all others are no-ops this phase, see NodeProgram::roster).
  template <typename F>
  void run_phase(const Roster& roster, F&& per_node);

  const Graph* g_;
  int bandwidth_;
  std::vector<std::int64_t> offset_;    // CSR offsets (degree prefix sums)
  std::vector<std::int64_t> rev_slot_;  // directed edge -> receiver's slot index
  std::vector<Slot> bufs_[2];
  int cur_ = 0;             // bufs_[cur_] = delivered, bufs_[cur_^1] = staging
  std::int64_t epoch_ = 0;  // deliveries so far (never reset)
  congest::Metrics metrics_;

  ThreadPool pool_;
  std::vector<NodeId> chunk_bounds_;  // degree-weighted static partition
  std::vector<WorkerState> workers_;

  // Steady-state-allocation-free dispatch: phase_job_ is built ONCE (it
  // captures only `this`, comfortably inside std::function's inline
  // storage) and forwarded to every pool run; the per-phase body is type-
  // erased through the raw trampoline pointer pair instead of a fresh
  // std::function per phase.
  void (*phase_body_)(void*, int) = nullptr;
  void* phase_ctx_ = nullptr;
  std::function<void(int)> phase_job_;
};

}  // namespace dcolor::runtime
