#pragma once
// The benchmark's value model: BG/Q node-board power by EMON domain.
//
// Each series is a seeded random walk around its domain's base power.
// Values are whole multiples of 2^-10 W below 128 W, so every sum and
// sum of squares the store can fold over a workload's windows is exact
// in double: checks compare bit for bit, whatever order the program
// folds in.  Walks differ per series, so content-addressed block dedup
// finds nothing to share.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "tsdb/location.hpp"

namespace perfbench {

inline constexpr int kDomains = 7;

// The seven BG/Q domains MonEQ reads (paper §II-A).
inline const std::string& domain_metric(int domain) {
  static const std::array<std::string, kDomains> kNames = {
      "chip_core_watts", "dram_watts",        "link_chip_core_watts", "hss_network_watts",
      "optics_watts",    "pci_express_watts", "sram_watts"};
  return kNames[static_cast<std::size_t>(domain)];
}

// Values in units of 2^-10 W.
inline constexpr std::int32_t kUnitsPerWatt = 1024;
inline double to_watts(std::int32_t units) {
  return static_cast<double>(units) / static_cast<double>(kUnitsPerWatt);
}

// One series: a walk of at most 1/32 W per step, kept within +-25% of
// the domain's base power.
class PowerWalk {
 public:
  PowerWalk(std::uint64_t seed, int domain) : rng_(seed) {
    static constexpr std::array<std::int32_t, kDomains> kBaseWatts = {72, 26, 9, 12, 6, 4, 10};
    const std::int32_t base = kBaseWatts[static_cast<std::size_t>(domain)] * kUnitsPerWatt;
    lo_ = base - base / 4;
    hi_ = base + base / 4;
    v_ = lo_ + static_cast<std::int32_t>(rng_.below(static_cast<std::uint64_t>(hi_ - lo_)));
  }
  std::int32_t next() {
    v_ = std::clamp(v_ + static_cast<std::int32_t>(rng_.below(65)) - 32, lo_, hi_);
    return v_;
  }

 private:
  Rng rng_;
  std::int32_t lo_ = 0, hi_ = 0, v_ = 0;
};

inline std::vector<std::int32_t> power_walk(std::uint64_t seed, int domain, std::size_t n) {
  PowerWalk walk(seed, domain);
  std::vector<std::int32_t> out(n);
  for (auto& x : out) x = walk.next();
  return out;
}

// Boards fill midplanes (16 boards each), midplanes fill racks (2 each),
// as on BG/Q.
inline envmon::tsdb::Location board_location_of(int board) {
  return envmon::tsdb::board_location(board / 32, (board / 16) % 2, board % 16);
}

}  // namespace perfbench
