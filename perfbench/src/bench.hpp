#pragma once
// Shared pieces of the end-to-end benchmark: the command line, exact-
// sample statistics, the seeded input generator, the in-memory span
// trace and the one-line JSON result.
//
// Every statistic here is computed from the exact samples, sorted.
// obs::Histogram buckets are ~30% apart, so a quantile interpolated
// from them can only take a handful of values; none is used.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tsdb/database.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for sockets, stores, frame logs and traces,
  // relative to the working directory (the checkout root).
  std::string out_dir = ".bench_out";
  // Process start, taken first thing in main(): setup_s runs from here.
  Clock::time_point process_start;
};

// splitmix64: the benchmark's only source of input randomness, so a
// seed fixes every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng r(seed ^ (salt * 0xd1b54a32d192ed03ull));
  return r.next();
}

// Linear interpolation between order statistics of the exact samples
// (the "type 7" definition); the median of an even count is the mean of
// the two middle samples.
[[nodiscard]] inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The per-run statistic of a per-round end-to-end sample: its best
// round.  On a shared host the speed drifts by 10-30% within seconds,
// and the fastest round varied least from run to run of every statistic
// tried (README.md).  Every round holds all the periodic work of its
// workload, so the best round cannot skip any of it.
[[nodiscard]] inline double best_rate(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}
[[nodiscard]] inline double best_time(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// "p50 x ms, p99 y ms over n samples" for a latency sample.
[[nodiscard]] inline std::string tail_note(const char* what, const std::vector<double>& ms) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: p50 %.4f ms, p99 %.4f ms over %zu samples", what,
                quantile(ms, 0.5), quantile(ms, 0.99), ms.size());
  return buf;
}

// FNV-1a over bytes, for output digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Digest of a record stream in order: timestamp, location, metric and
// value bits of every row.
[[nodiscard]] std::uint64_t digest_records(const std::vector<envmon::tsdb::Record>& rows);

// Spans around the public calls the benchmark makes: name, start, end,
// parent and round, kept in memory and written out when the run ends.
// Disabled (the untraced runs that give the end-to-end metrics), every
// call is a single branch.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  std::int32_t parent = -1;
  std::uint32_t round = 0;
};

class Trace {
 public:
  Trace(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_round(std::uint32_t round) { round_.store(round, std::memory_order_relaxed); }

  // Opens a span whose parent is the innermost span open on this thread.
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  class Scope {
   public:
    Scope(Trace& trace, const char* name)
        : trace_(&trace), id_(trace.enabled() ? trace.open(name) : -1) {}
    ~Scope() {
      if (id_ >= 0) trace_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    std::int32_t id_;
  };

  // Per span name: summed duration, and summed self time (duration
  // minus the part of the span its children cover), over the spans of
  // measured rounds (round >= 1; set-up and checks run as round 0).
  struct LayerTime {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t spans = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  // Writes every span and the given counters as one JSON document.
  bool write(const std::string& path,
             const std::vector<std::pair<std::string, double>>& counters) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::uint32_t> round_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics every run reports, in BENCHMARK.json order: --trace 0
// prints kEndToEnd, --trace 1 prints kPerLayer.  A per-layer metric of a
// layer the workload does not exercise reads 0.
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

// What one workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<std::pair<std::string, double>> counters;  // raw API counters for the trace file
  // Per-round samples behind each end-to-end statistic, and tails, for
  // the human-readable summary.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> notes;  // further summary lines (tails)
  std::vector<std::string> errors;

  void fail_check(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
};

// Every run completes at least kMinRounds measured rounds.  Peak resident
// set (VmHWM) of this process in MB; peak_rss_mb is read
// after the first kMinRounds measured rounds, the minimum every run
// completes, so it does not depend on how many rounds a run's time allows
// (live_dashboard's store grows every round).
inline constexpr std::size_t kMinRounds = 3;
[[nodiscard]] double peak_rss_mb();

// Creates (or empties) a directory; false on failure.
bool fresh_directory(const std::string& path);

// Sum of the sizes of the regular files under `path`.
[[nodiscard]] std::uint64_t directory_bytes(const std::string& path);

// The workloads.  Each measures for args.seconds (whole rounds only),
// checks its outputs against values it computes itself, and fills the
// outcome.  `trace` is enabled only for --trace 1.
Outcome run_fleet_collect(const Args& args, Trace& trace);
Outcome run_envmond_ingest(const Args& args, Trace& trace);
Outcome run_live_dashboard(const Args& args, Trace& trace);

// Self-tests: each runs a small instance of the workload, confirms its
// check passes, then plants one wrong row, bucket or digest and confirms
// the check fails.  Return false (and print why) when a check did not
// behave.
bool selftest_fleet_collect(const Args& args);
bool selftest_envmond_ingest(const Args& args);
bool selftest_live_dashboard(const Args& args);

}  // namespace perfbench
