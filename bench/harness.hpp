#pragma once
// Shared bench plumbing: host metadata stamped into the BENCH_*.json
// files, so a number always travels with the machine that produced it,
// and a best-of-N CPU-time timer.

#include <time.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>

namespace envmon::bench {

// The first "model name" line of /proc/cpuinfo, or "unknown".
inline std::string host_cpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) break;
    return line.substr(colon + 2);
  }
  return "unknown";
}

inline unsigned host_cores() { return std::thread::hardware_concurrency(); }

// Best-of-`reps` CPU seconds of `fn`.  CPU time, not wall time: decode
// microbenches run on shared hosts where other tenants steal the core,
// and a wall clock would charge their timeslices to whichever decoder
// was unlucky enough to be running.  CLOCK_PROCESS_CPUTIME_ID counts
// only this process's execution, so speedup ratios survive background
// load.
template <typename Fn>
double best_cpu_seconds(int reps, Fn&& fn) {
  const auto now = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now();
    fn();
    best = std::min(best, now() - t0);
  }
  return best;
}

}  // namespace envmon::bench
