#include "perfbench/timed_transport.h"

#include <algorithm>

namespace perfbench {

using dcolor::NodeId;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

const char* prim_name(Prim p) {
  static constexpr const char* kNames[kNumPrims] = {
      "linial", "build_tree", "exchange_along", "aggregate_pair",
      "broadcast_bit", "conflict_mis", "tick"};
  return kNames[p];
}

double TransportTimes::total_ms() const {
  double s = 0.0;
  for (const PrimStats& p : prim) s += p.ms;
  return s;
}

void TransportTimes::add(const TransportTimes& o) {
  for (int i = 0; i < kNumPrims; ++i) {
    prim[i].ms += o.prim[i].ms;
    prim[i].calls += o.prim[i].calls;
    prim[i].rounds += o.prim[i].rounds;
  }
}

TimedColoringTransport::Scope::Scope(TimedColoringTransport& t, Prim p)
    : t_(t), p_(p), rounds0_(t.inner_->metrics().rounds), t0_(Clock::now()) {}

TimedColoringTransport::Scope::~Scope() {
  PrimStats& s = t_.out_->prim[p_];
  s.ms += ms_since(t0_);
  s.calls += 1;
  s.rounds += t_.inner_->metrics().rounds - rounds0_;
}

dcolor::LinialResult TimedColoringTransport::linial(const dcolor::InducedSubgraph& active,
                                                    const std::vector<std::int64_t>* initial,
                                                    std::int64_t initial_colors) {
  Scope s(*this, kLinial);
  return inner_->linial(active, initial, initial_colors);
}

void TimedColoringTransport::build_tree(NodeId root) {
  Scope s(*this, kBuildTree);
  inner_->build_tree(root);
}

void TimedColoringTransport::exchange_along(const std::vector<std::vector<NodeId>>& targets,
                                            const std::vector<char>& senders,
                                            const std::vector<std::uint64_t>& payloads,
                                            int bits, std::vector<std::vector<NodeId>>* from) {
  Scope s(*this, kExchangeAlong);
  inner_->exchange_along(targets, senders, payloads, bits, from);
}

std::pair<long double, long double> TimedColoringTransport::aggregate_pair(
    const std::vector<long double>& values0, const std::vector<long double>& values1) {
  Scope s(*this, kAggregatePair);
  return inner_->aggregate_pair(values0, values1);
}

void TimedColoringTransport::broadcast_bit(int bit) {
  Scope s(*this, kBroadcastBit);
  inner_->broadcast_bit(bit);
}

std::vector<bool> TimedColoringTransport::conflict_mis(
    const dcolor::Graph& conf, const std::vector<bool>& membership,
    const std::vector<std::int64_t>& input_coloring, std::int64_t input_colors) {
  Scope s(*this, kConflictMis);
  return inner_->conflict_mis(conf, membership, input_coloring, input_colors);
}

void TimedColoringTransport::tick(std::int64_t rounds) {
  Scope s(*this, kTick);
  inner_->tick(rounds);
}

TimedCorollary12Transports::TimedCorollary12Transports(dcolor::Corollary12Transports& inner,
                                                       Corollary12Times* out,
                                                       Clock::time_point start)
    : inner_(&inner), out_(out), start_(start) {}

dcolor::ColoringTransport& TimedCorollary12Transports::global() {
  if (!global_) {
    out_->decomposition_ms = ms_since(start_);
    global_.emplace(inner_->global(), &out_->global);
  }
  return *global_;
}

dcolor::ColoringTransport& TimedCorollary12Transports::cluster(const dcolor::Cluster& c) {
  cluster_.emplace(inner_->cluster(c), &out_->cluster);
  return *cluster_;
}

void TimedCorollary12Transports::run_cluster_class(
    const std::vector<const dcolor::Cluster*>& batch, const ClusterWork& work,
    std::vector<dcolor::congest::Metrics>* out_metrics) {
  double slowest_ms = 0.0;
  const auto t0 = Clock::now();
  inner_->run_cluster_class(
      batch,
      [&](const dcolor::Cluster& c, dcolor::ColoringTransport& ct) {
        // Each cluster runs on whichever pool worker picked it up: time it
        // through a private decorator, then merge under the lock.
        TransportTimes local;
        const auto w0 = Clock::now();
        {
          TimedColoringTransport timed(ct, &local);
          work(c, timed);
        }
        const double busy_ms = ms_since(w0);
        std::lock_guard<std::mutex> lock(mu_);
        out_->cluster.add(local);
        out_->cluster_busy_ms += busy_ms;
        slowest_ms = std::max(slowest_ms, busy_ms);
      },
      out_metrics);
  out_->class_wall_ms += ms_since(t0);
  out_->critical_ms += slowest_ms;
}

}  // namespace perfbench
