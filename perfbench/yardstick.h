// A fixed CPU and cache workload that shares no code with dcolor. It is
// timed next to every solve and every set-up block, so that their wall
// times can be scaled to one machine speed. On a shared virtual machine the
// speed of a vCPU changes by up to half within seconds and stays changed
// for tens of seconds (README.md, "Steadiness"); a wall time alone then
// measures the neighbours as much as the program.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Yardstick {
 public:
  // Builds the fixed random graph the sweeps run over (about 2.5 MiB).
  Yardstick();

  // Wall time of one sweep run on `threads` threads at once, each over its
  // own values: the slowest thread sets it.
  double ms(int threads) const;

  // The speed index of a measured interval: the geometric mean of a
  // 1-thread and a `threads`-thread sweep taken before it and after it.
  // `pin_cpu` >= 0 pins the calling thread to that CPU for the interval
  // and its 1-thread sweeps, so that both see the same vCPU; the
  // `threads`-thread sweeps always run unpinned.
  template <typename Body>
  double around(int threads, int pin_cpu, Body&& body) const {
    const double before_n = ms(threads);
    const bool pinned = pin_cpu >= 0 && pin(pin_cpu);
    const double before_1 = ms(1);
    body();
    const double after_1 = ms(1);
    if (pinned) unpin();
    const double after_n = ms(threads);
    return geometric_mean(before_n, before_1, after_1, after_n);
  }

 private:
  static bool pin(int cpu);
  static void unpin();
  static double geometric_mean(double a, double b, double c, double d);

  std::vector<std::uint32_t> off_;
  std::vector<std::uint32_t> adj_;
};

// The CPUs this process may run on, in order.
const std::vector<int>& allowed_cpus();

}  // namespace perfbench
