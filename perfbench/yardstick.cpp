#include "perfbench/yardstick.h"

#include <sched.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "perfbench/timed_transport.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kNodes = 1u << 16;
constexpr int kDegree = 8;
// About 25 ms a sweep on one thread of a 4-vCPU Xeon VM.
constexpr int kRepetitions = 40;

// Random neighbour reads into an L2-sized value array along a sequential
// edge array: the access pattern of a CSR round, without any dcolor code.
std::uint64_t sweep(const std::vector<std::uint32_t>& off, const std::vector<std::uint32_t>& adj) {
  std::vector<std::uint32_t> val(kNodes);
  for (std::uint32_t v = 0; v < kNodes; ++v) val[v] = v * 2654435761u;
  for (int r = 0; r < kRepetitions; ++r) {
    for (std::uint32_t v = 0; v < kNodes; ++v) {
      std::uint32_t h = val[v];
      for (std::uint32_t e = off[v]; e < off[v + 1]; ++e) {
        const std::uint32_t u = val[adj[e]];
        h = (h ^ u) * 0x9E3779B1u + (u >> 3);
      }
      val[v] = h;
    }
  }
  std::uint64_t sum = 0;
  for (std::uint32_t x : val) sum += x;
  return sum;
}

// Keeps the sweeps from being optimized away.
volatile std::uint64_t g_sink = 0;

cpu_set_t mask_of(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return set;
}

}  // namespace

Yardstick::Yardstick() {
  std::uint64_t x = 88172645463325252ull;
  off_.reserve(kNodes + 1);
  adj_.reserve(static_cast<std::size_t>(kNodes) * kDegree);
  off_.push_back(0);
  for (std::uint32_t v = 0; v < kNodes; ++v) {
    for (int k = 0; k < kDegree; ++k) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      adj_.push_back(static_cast<std::uint32_t>(x % kNodes));
    }
    off_.push_back(static_cast<std::uint32_t>(adj_.size()));
  }
}

double Yardstick::ms(int threads) const {
  const auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    g_sink = g_sink + sweep(off_, adj_);
  } else {
    std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back([&, i] { sums[static_cast<std::size_t>(i)] = sweep(off_, adj_); });
    }
    for (std::thread& t : pool) t.join();
    for (std::uint64_t s : sums) g_sink = g_sink + s;
  }
  return ms_since(t0);
}

bool Yardstick::pin(int cpu) {
  const cpu_set_t one = mask_of({cpu});
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

void Yardstick::unpin() {
  const cpu_set_t all = mask_of(allowed_cpus());
  sched_setaffinity(0, sizeof all, &all);
}

double Yardstick::geometric_mean(double a, double b, double c, double d) {
  return std::sqrt(std::sqrt(a * b * c * d));
}

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> kCpus = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  return kCpus;
}

}  // namespace perfbench
