// Timing decorators over the library's public transport interfaces.
//
// The benchmark splits a solve's wall time by layer WITHOUT any probe
// inside the library: it hands the shared entry points (theorem11_run,
// corollary12_run) a decorator that forwards every call to the real
// engine transport and records, per primitive, the wall time spent inside
// the call, the number of calls, and the charged CONGEST rounds the call
// added (the metrics() delta across it). Whatever the algorithm does between
// transport calls — the Lemma 2.1 / 2.6 seed-fixing math in the coloring
// module — is the coloring layer's self time.
//
// A decorator changes no result: every call is forwarded verbatim, so a
// decorated solve must reproduce the undecorated colors and Metrics (the
// benchmark checks this on every traced solve, selftest.cpp pins it).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/decomposition/corollary12.h"

namespace perfbench {

// The ColoringTransport primitives, in interface order. kTick (charged
// idle rounds) is timed so transport time is complete, but it is not
// reported as a layer of its own.
enum Prim : int {
  kLinial,
  kBuildTree,
  kExchangeAlong,
  kAggregatePair,
  kBroadcastBit,
  kConflictMis,
  kTick,
  kNumPrims
};

// Metric-name stem of each primitive ("runtime.<name>.ms").
const char* prim_name(Prim p);

struct PrimStats {
  double ms = 0.0;
  std::int64_t calls = 0;
  std::int64_t rounds = 0;  // charged rounds added by the calls
};

struct TransportTimes {
  std::array<PrimStats, kNumPrims> prim{};

  double total_ms() const;
  void add(const TransportTimes& o);
};

// ColoringTransport decorator: forwards every call to `inner` and adds
// its time/calls/rounds to `*out`. Not thread-safe; one per thread.
class TimedColoringTransport final : public dcolor::ColoringTransport {
 public:
  TimedColoringTransport(dcolor::ColoringTransport& inner, TransportTimes* out)
      : inner_(&inner), out_(out) {}

  const dcolor::Graph& graph() const override { return inner_->graph(); }
  int bandwidth_bits() const override { return inner_->bandwidth_bits(); }

  dcolor::LinialResult linial(const dcolor::InducedSubgraph& active,
                              const std::vector<std::int64_t>* initial,
                              std::int64_t initial_colors) override;
  void build_tree(dcolor::NodeId root) override;
  void exchange_along(const std::vector<std::vector<dcolor::NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<dcolor::NodeId>>* from) override;
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override;
  void broadcast_bit(int bit) override;
  std::vector<bool> conflict_mis(const dcolor::Graph& conf, const std::vector<bool>& membership,
                                 const std::vector<std::int64_t>& input_coloring,
                                 std::int64_t input_colors) override;
  void tick(std::int64_t rounds) override;
  const dcolor::congest::Metrics& metrics() const override { return inner_->metrics(); }

 private:
  // Times one forwarded call: wall time and the rounds delta.
  class Scope {
   public:
    Scope(TimedColoringTransport& t, Prim p);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TimedColoringTransport& t_;
    Prim p_;
    std::int64_t rounds0_;
    std::chrono::steady_clock::time_point t0_;
  };

  dcolor::ColoringTransport* inner_;
  TransportTimes* out_;
};

// What the Corollary 1.2 decorator measures. Cluster-side figures are
// summed over clusters that run concurrently on pool workers, so they are
// thread time, not wall time.
struct Corollary12Times {
  // Time from the start of the solve to the first global() call:
  // corollary12_run computes the network decomposition before touching
  // any transport, so this is the decomposition layer's self time.
  double decomposition_ms = 0.0;
  TransportTimes global;      // global transport (Linial, pruning)
  TransportTimes cluster;     // all per-cluster transports, summed
  double class_wall_ms = 0.0;     // run_cluster_class wall time, summed
  double cluster_busy_ms = 0.0;   // per-cluster work time, summed
  double critical_ms = 0.0;       // slowest cluster of each class, summed
};

// Corollary12Transports decorator: global() returns a timed view of the
// inner global transport; run_cluster_class times the whole class and
// runs each cluster's work through a per-call TimedColoringTransport
// whose figures merge under a lock (clusters run concurrently).
class TimedCorollary12Transports final : public dcolor::Corollary12Transports {
 public:
  // `start` is when the solve began (decomposition_ms is measured from
  // it to the first global() call).
  TimedCorollary12Transports(dcolor::Corollary12Transports& inner, Corollary12Times* out,
                             std::chrono::steady_clock::time_point start);

  dcolor::ColoringTransport& global() override;
  void run_cluster_class(const std::vector<const dcolor::Cluster*>& batch,
                         const ClusterWork& work,
                         std::vector<dcolor::congest::Metrics>* out_metrics) override;
  dcolor::ColoringTransport& cluster(const dcolor::Cluster& c) override;

 private:
  dcolor::Corollary12Transports* inner_;
  Corollary12Times* out_;
  std::chrono::steady_clock::time_point start_;
  std::optional<TimedColoringTransport> global_;
  std::optional<TimedColoringTransport> cluster_;  // sequential cluster() path
  std::mutex mu_;  // guards out_->cluster* while a class runs concurrently
};

double ms_since(std::chrono::steady_clock::time_point t0);

}  // namespace perfbench
