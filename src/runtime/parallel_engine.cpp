#include "src/runtime/parallel_engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "src/obs/obs.h"
#include "src/util/bits.h"

namespace dcolor::runtime {

using congest::CongestViolation;

ParallelEngine::ParallelEngine(const Graph& g, int num_threads, int bandwidth_bits)
    : g_(&g), pool_(num_threads) {
  const int logn = ceil_log2(std::max<std::uint64_t>(g.num_nodes(), 2));
  bandwidth_ = bandwidth_bits > 0 ? bandwidth_bits : 2 * logn + 16;

  const NodeId n = g.num_nodes();
  offset_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) offset_[v + 1] = offset_[v] + g.degree(v);
  const std::int64_t slots = offset_[n];

  // Reverse-edge map: the slot the directed edge (u -> v) writes lives in
  // v's inbox region at u's position within v's sorted adjacency. Since
  // adjacencies are sorted, sweeping senders u in ascending order visits
  // each receiver's slots in order — one cursor per receiver gives the
  // whole map in O(m), no per-edge binary search.
  rev_slot_.resize(static_cast<std::size_t>(slots));
  std::vector<std::int64_t> cursor(offset_.begin(), offset_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    const auto nb = g.neighbors(u);
    for (std::size_t j = 0; j < nb.size(); ++j) {
      const NodeId v = nb[j];
      assert(g.neighbors(v)[cursor[v] - offset_[v]] == u && "CSR adjacency must be symmetric");
      rev_slot_[offset_[u] + static_cast<std::int64_t>(j)] = cursor[v]++;
    }
  }

  bufs_[0].assign(static_cast<std::size_t>(slots), Slot{});
  bufs_[1].assign(static_cast<std::size_t>(slots), Slot{});

  // Degree-weighted static chunking: balanced for skewed degree
  // distributions, and independent of anything but (graph, num_threads),
  // so the partition never influences results.
  const int T = pool_.num_threads();
  workers_.resize(static_cast<std::size_t>(T));
  chunk_bounds_.assign(static_cast<std::size_t>(T) + 1, n);
  chunk_bounds_[0] = 0;
  const std::int64_t total_weight = slots + 4 * static_cast<std::int64_t>(n);
  NodeId v = 0;
  std::int64_t weight_seen = 0;
  for (int t = 1; t < T; ++t) {
    const std::int64_t target = total_weight * t / T;
    while (v < n && weight_seen < target) {
      weight_seen += g.degree(v) + 4;
      ++v;
    }
    chunk_bounds_[t] = v;
  }

  phase_job_ = [this](int t) { phase_body_(phase_ctx_, t); };
}

void ParallelEngine::stage(NodeId from, int nth, std::uint64_t payload, int bits,
                           WorkerState& ws) {
  if (bits > bandwidth_) {
    throw CongestViolation("message of " + std::to_string(bits) + " bits exceeds bandwidth " +
                           std::to_string(bandwidth_));
  }
  if (bits < bit_width_of(payload)) {
    throw CongestViolation("declared size " + std::to_string(bits) +
                           " bits cannot hold payload");
  }
  const std::int64_t slot = rev_slot_[offset_[from] + nth];
  Slot& s = staging()[slot];
  if (s.stamp == epoch_ + 1) {
    throw CongestViolation("two messages over one edge in one round");
  }
  s.stamp = epoch_ + 1;
  s.payload = payload;
  ++ws.metrics.messages;
  ws.metrics.total_bits += bits;
  if (bits > ws.metrics.max_message_bits) ws.metrics.max_message_bits = bits;
}

void Outbox::send(NodeId to, std::uint64_t payload, int bits) {
  if (net_ != nullptr) return net_->send(self_, to, payload, bits);
  const auto nb = eng_->g_->neighbors(self_);
  const auto it = std::lower_bound(nb.begin(), nb.end(), to);
  if (it == nb.end() || *it != to) {
    throw CongestViolation("send over non-edge");
  }
  eng_->stage(self_, static_cast<int>(it - nb.begin()), payload, bits,
              *static_cast<ParallelEngine::WorkerState*>(worker_));
}

void Outbox::send_nth(int nth, std::uint64_t payload, int bits) {
  if (net_ != nullptr) return net_->send(self_, net_->graph().neighbors(self_)[nth], payload, bits);
  assert(nth >= 0 && nth < eng_->g_->degree(self_));
  eng_->stage(self_, nth, payload, bits, *static_cast<ParallelEngine::WorkerState*>(worker_));
}

void Outbox::send_all(std::uint64_t payload, int bits) {
  if (net_ != nullptr) return net_->send_all(self_, payload, bits);
  const int deg = eng_->g_->degree(self_);
  auto& ws = *static_cast<ParallelEngine::WorkerState*>(worker_);
  for (int j = 0; j < deg; ++j) eng_->stage(self_, j, payload, bits, ws);
}

template <typename F>
void ParallelEngine::run_phase(const Roster& roster, F&& per_node) {
  for (WorkerState& w : workers_) {
    w.metrics = congest::Metrics{};
    w.fail_node = -1;
    w.error = nullptr;
  }
  const int T = pool_.num_threads();
  const std::size_t width =
      roster.dense ? static_cast<std::size_t>(g_->num_nodes()) : roster.count;
  auto body = [&](int t) {
    WorkerState& ws = workers_[t];
    Outbox out(this, &ws);
    // Dense phases use the precomputed degree-weighted chunking; rostered
    // phases split the (ascending) roster into equal contiguous ranges.
    // Either partition depends only on (graph, roster, T), never on
    // timing, so thread count cannot perturb anything.
    const std::size_t r_lo =
        roster.dense ? 0 : roster.count * static_cast<std::size_t>(t) / T;
    const std::size_t r_hi =
        roster.dense ? 0 : roster.count * (static_cast<std::size_t>(t) + 1) / T;
    const NodeId lo = roster.dense ? chunk_bounds_[t] : 0;
    const NodeId hi = roster.dense ? chunk_bounds_[t + 1] : 0;
    const std::size_t count = roster.dense ? static_cast<std::size_t>(hi - lo) : r_hi - r_lo;
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId v = roster.dense ? lo + static_cast<NodeId>(i) : roster.nodes[r_lo + i];
      out.self_ = v;
      try {
        per_node(v, out);
      } catch (...) {
        // Nodes run in ascending order within a chunk, so the first
        // failure is the chunk's smallest failing node.
        ws.fail_node = v;
        ws.error = std::current_exception();
        return;
      }
    }
  };
  if (T == 1 || width <= kSerialPhaseCutoff) {
    // Serial fast path: the exact chunks the pool would run, in worker
    // order on the coordinator — bit-identical state evolution (including
    // which chunks complete around a throwing node), no pool wakeup.
    for (int t = 0; t < T; ++t) body(t);
  } else {
    phase_ctx_ = &body;
    phase_body_ = [](void* ctx, int t) { (*static_cast<decltype(body)*>(ctx))(t); };
    pool_.run(phase_job_);
  }
  // Merge is order-insensitive (sums and a max), so thread count cannot
  // perturb Metrics; rounds are only advanced by the coordinator.
  for (const WorkerState& w : workers_) metrics_.merge(w.metrics);
  NodeId bad = -1;
  std::exception_ptr err;
  for (const WorkerState& w : workers_) {
    if (w.error && (bad < 0 || w.fail_node < bad)) {
      bad = w.fail_node;
      err = w.error;
    }
  }
  if (err) std::rethrow_exception(err);
}

std::int64_t ParallelEngine::run(NodeProgram& program) {
  obs::Span run_span(obs::kCatEngine, "engine.run");
  run_span.arg("nodes", g_->num_nodes());
  run_span.arg("threads", pool_.num_threads());
  // Isolate this run's stamp space: a prior run (even one that threw)
  // may have left stamps up to epoch_+1 in the buffers, and advancing by
  // two keeps them strictly behind every stamp this run can read.
  epoch_ += 2;
  std::int64_t before_phase = metrics_.messages;
  std::int64_t before_bits = metrics_.total_bits;
  std::int64_t last_phase_messages;
  {
    const Roster roster = program.roster(0);
    obs::Span round_span(obs::kCatEngine, "engine.round");
    if (round_span.live()) {
      round_span.arg("round", 0);
      round_span.arg("roster", roster.size_or(g_->num_nodes()));
      obs::value(obs::kCatMetric, "engine.roster", roster.size_or(g_->num_nodes()));
    }
    run_phase(roster, [&program](NodeId v, Outbox& out) { program.init(v, out); });
    last_phase_messages = metrics_.messages - before_phase;
    if (round_span.live()) {
      round_span.arg("messages", last_phase_messages);
      round_span.arg("bits", metrics_.total_bits - before_bits);
      obs::value(obs::kCatMetric, "engine.round_messages", last_phase_messages);
    }
  }
  std::int64_t rounds = 0;
  while (!program.done(rounds)) {
    cur_ ^= 1;  // deliver: staged slots carry stamp epoch_+1 == new epoch_
    ++epoch_;
    ++metrics_.rounds;
    ++rounds;
    const std::int64_t r = rounds;
    before_phase = metrics_.messages;
    before_bits = metrics_.total_bits;
    const Roster roster = program.roster(r);
    obs::Span round_span(obs::kCatEngine, "engine.round");
    if (round_span.live()) {
      round_span.arg("round", r);
      round_span.arg("roster", roster.size_or(g_->num_nodes()));
      obs::value(obs::kCatMetric, "engine.roster", roster.size_or(g_->num_nodes()));
    }
    run_phase(roster, [&, r](NodeId v, Outbox& out) {
      const Inbox in(delivered() + offset_[v], g_->neighbors(v).data(), g_->degree(v), epoch_);
      program.on_round(r, v, in, out);
    });
    last_phase_messages = metrics_.messages - before_phase;
    if (round_span.live()) {
      round_span.arg("messages", last_phase_messages);
      round_span.arg("bits", metrics_.total_bits - before_bits);
      obs::value(obs::kCatMetric, "engine.round_messages", last_phase_messages);
    }
  }
  run_span.arg("rounds", rounds);
  // Sends staged in the phase after which done() fired would be charged
  // but never delivered — surface the program bug instead of silently
  // dropping traffic.
  if (last_phase_messages != 0) {
    throw std::logic_error("NodeProgram staged sends in its final phase");
  }
  return rounds;
}

std::int64_t run(ParallelEngine& eng, NodeProgram& program) { return eng.run(program); }

}  // namespace dcolor::runtime
