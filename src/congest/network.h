// Synchronous CONGEST network simulator.
//
// Time advances in rounds (advance_round). Within a round each node may
// stage at most one message per incident edge, of at most bandwidth_bits
// bits; violations throw CongestViolation. Message sizes are declared by
// the caller and validated against the payload's magnitude, so an
// algorithm cannot "cheat" by declaring fewer bits than it uses.
//
// This simulator is deliberately strict: every algorithm in this library
// routes all inter-node communication through it so that the reported
// round counts are honest CONGEST costs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/congest/metrics.h"
#include "src/graph/graph.h"
#include "src/obs/obs.h"

namespace dcolor::congest {

class CongestViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Incoming {
  NodeId from;
  std::uint64_t payload;
};

class Network {
 public:
  // bandwidth_bits defaults to 2*ceil(log2 n) + 16: Theta(log n), with the
  // constant chosen so a constant number of node ids / colors / counters
  // fit in one message (the usual CONGEST convention).
  explicit Network(const Graph& g, int bandwidth_bits = 0);

  const Graph& graph() const { return *g_; }
  int bandwidth_bits() const { return bandwidth_; }

  // Stage a message from u to its neighbor v for delivery at the end of
  // the current round. `bits` is the declared size.
  void send(NodeId u, NodeId v, std::uint64_t payload, int bits);

  // Stage the same message to all neighbors of u.
  void send_all(NodeId u, std::uint64_t payload, int bits);

  // Deliver staged messages and advance time by one round.
  void advance_round();

  // Advance time by `rounds` rounds with no messages (synchronization /
  // charged idle time, e.g. conservatively accounted pipelining).
  void tick(std::int64_t rounds);

  // Charges traffic whose cost the caller computed in closed form (a
  // Lemma 2.6 tree wave, congest::wave_cost). Like tick, no messages may
  // be staged. The next network.round span and round_messages probe start
  // after the charge, so the wave's traffic cannot leak into them.
  void charge(const Metrics& m) {
    metrics_.merge(m);
    obs_mark_round_start();
  }

  // Messages received by v in the most recently completed round.
  std::span<const Incoming> inbox(NodeId v) const {
    return {inbox_[v].data(), inbox_[v].size()};
  }

  const Metrics& metrics() const { return metrics_; }
  void reset_metrics() {
    metrics_ = Metrics{};
    // The duplicate-send stamps key on the round counter; clear them so a
    // reset cannot alias an old round with the new round 0.
    std::fill(edge_stamp_.begin(), edge_stamp_.end(), std::int64_t{-1});
    obs_mark_round_start();
  }

 private:
  // Tracing bookkeeping only — never read by the simulation. Each
  // advance_round emits one "network.round" span covering the staging
  // window since the previous round boundary (or construction/reset),
  // carrying the round's message/bit deltas.
  void obs_mark_round_start() {
    obs_round_start_ns_ = obs::enabled() ? obs::now_ns() : -1;
    obs_messages_base_ = metrics_.messages;
    obs_bits_base_ = metrics_.total_bits;
  }

  const Graph* g_;
  int bandwidth_;
  std::vector<std::vector<Incoming>> staged_;
  std::vector<std::vector<Incoming>> inbox_;
  // Per-round duplicate-send detection: stamp[(u,slot)] == round means u
  // already sent over that incident-edge slot this round.
  std::vector<std::int64_t> edge_stamp_;
  std::vector<std::int64_t> slot_offset_;
  Metrics metrics_;
  std::int64_t obs_round_start_ns_ = -1;
  std::int64_t obs_messages_base_ = 0;
  std::int64_t obs_bits_base_ = 0;
};

}  // namespace dcolor::congest
