// fleet_collect: FleetRunner with 2 workers at a fixed 1 s polling
// interval.  A round runs two partitions that together cover the paper's
// four mechanisms: BG/Q node boards on EMON, and x86 nodes carrying RAPL,
// NVML and the Phi's MICRAS daemon path.  Board-level records
// (IngestMode::kNodePower) land in each runner's in-memory store; node
// files go to a digesting OutputTarget.  The simulation, MonEQ polling
// and spooling, the shard scheduler and the telemetry rollup do almost
// all the work; there is no disk, socket or query on the timed path.

#include <cmath>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fleet/api.hpp"
#include "moneq/output.hpp"

namespace perfbench {
namespace {

namespace fleet = envmon::fleet;
namespace moneq = envmon::moneq;
namespace tsdb = envmon::tsdb;
using envmon::sim::Duration;

constexpr int kWorkers = 2;
constexpr std::int64_t kHorizonS = 120;
constexpr std::int64_t kPollS = 1;
constexpr const char* kNodePowerMetric = "moneq_node_power_watts";
// The paper's EMON cost per query (§II-A), which the BG/Q backend models.
constexpr double kEmonQueryMs = 1.10;

struct Partition {
  const char* name;
  int nodes;
  std::vector<moneq::Capability> capabilities;
};

const std::vector<Partition>& partitions() {
  static const std::vector<Partition> kPartitions = {
      {"bgq", 384, {moneq::Capability::kBgqEmon}},
      {"x86", 128,
       {moneq::Capability::kRaplMsr, moneq::Capability::kNvml, moneq::Capability::kMicDaemon}},
  };
  return kPartitions;
}

// Hashes every node file the runner writes instead of keeping it.
class DigestOutput final : public moneq::OutputTarget {
 public:
  explicit DigestOutput(Trace& trace) : trace_(&trace) {}
  envmon::Status write(const std::string& filename, const std::string& content) override {
    Trace::Scope span(*trace_, "moneq.output_write");
    digest_.str(filename);
    digest_.str(content);
    bytes_ += content.size();
    ++files_;
    return envmon::Status::ok();
  }
  [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t files() const { return files_; }

 private:
  Trace* trace_;
  Digest digest_;
  std::uint64_t bytes_ = 0;
  std::uint64_t files_ = 0;
};

// What one partition run produced, as the checks and metrics need it.
struct PartitionRun {
  bool ok = false;
  std::uint64_t operations = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;    // configure + run, as a caller of the API waits for it
  double export_s = 0.0;  // full read-back of the store
  std::uint64_t export_rows = 0;
  std::uint64_t node_power_rows = 0;
  std::uint64_t files = 0;
  std::uint64_t files_digest = 0;
  std::uint64_t db_digest = 0;
  std::uint64_t output_bytes = 0;
  fleet::FleetReport report;
};

PartitionRun run_partition(const Partition& part, std::uint64_t seed, int workers, Trace& trace) {
  PartitionRun out;
  DigestOutput output(trace);
  fleet::FleetConfig config;
  config.nodes = part.nodes;
  config.capabilities = part.capabilities;
  config.threads = workers;
  config.horizon = Duration::seconds(kHorizonS);
  config.polling_interval = Duration::seconds(kPollS);
  config.seed = seed;
  config.ingest = fleet::IngestMode::kNodePower;
  config.output = &output;

  fleet::FleetRunner runner;
  const auto t0 = Clock::now();
  {
    Trace::Scope span(trace, "fleet.configure");
    ++out.operations;
    if (!runner.configure(std::move(config)).is_ok()) {
      ++out.failed;
      return out;
    }
  }
  {
    Trace::Scope span(trace, "fleet.run");
    ++out.operations;
    if (!runner.run().is_ok()) {
      ++out.failed;
      return out;
    }
  }
  out.wall_s = seconds_between(t0, Clock::now());
  {
    Trace::Scope span(trace, "fleet.report");
    ++out.operations;
    auto report = runner.report();
    if (!report.is_ok()) {
      ++out.failed;
      return out;
    }
    out.report = report.value();
  }
  std::vector<tsdb::Record> rows;
  {
    Trace::Scope span(trace, "tsdb.export");
    ++out.operations;
    const auto t1 = Clock::now();
    rows = runner.database().query({});
    out.export_s = seconds_between(t1, Clock::now());
  }
  out.export_rows = rows.size();
  for (const auto& r : rows) out.node_power_rows += r.metric == kNodePowerMetric ? 1 : 0;
  out.db_digest = digest_records(rows);
  out.files_digest = output.digest();
  out.files = output.files();
  out.output_bytes = output.bytes();
  out.ok = true;
  return out;
}

// One round: every partition once.
struct Round {
  std::vector<PartitionRun> parts;
};

Round run_round(std::uint64_t seed, int workers, Trace& trace) {
  Round round;
  for (std::size_t p = 0; p < partitions().size(); ++p) {
    round.parts.push_back(run_partition(partitions()[p], mix_seed(seed, p + 1), workers, trace));
  }
  return round;
}

// The checks, against values computed here rather than by the program.
// `reference` is the same round at 1 worker.
void check_round(const Round& round, const Round& reference, Outcome& out) {
  for (std::size_t p = 0; p < round.parts.size(); ++p) {
    const Partition& part = partitions()[p];
    const PartitionRun& run = round.parts[p];
    if (!run.ok) continue;  // counted as a failed operation
    const std::uint64_t expect_rows =
        static_cast<std::uint64_t>(part.nodes) * static_cast<std::uint64_t>(kHorizonS / kPollS);
    if (run.node_power_rows != expect_rows) {
      out.fail_check(std::string(part.name) + ": " + std::to_string(run.node_power_rows) +
                     " node-power rows, expected nodes x horizon / interval = " +
                     std::to_string(expect_rows));
    }
    if (run.files != static_cast<std::uint64_t>(part.nodes)) {
      out.fail_check(std::string(part.name) + ": " + std::to_string(run.files) +
                     " node files, expected one per node");
    }
    if (part.capabilities.front() == moneq::Capability::kBgqEmon) {
      const double ms_per_poll = run.report.polls == 0
                                     ? 0.0
                                     : run.report.collection_total.to_millis() /
                                           static_cast<double>(run.report.polls);
      if (std::fabs(ms_per_poll - kEmonQueryMs) > 1e-6) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%s: modeled EMON cost %.6f ms/poll, expected %.2f",
                      part.name, ms_per_poll, kEmonQueryMs);
        out.fail_check(buf);
      }
    }
    const PartitionRun& ref = reference.parts[p];
    if (!ref.ok || run.files_digest != ref.files_digest || run.db_digest != ref.db_digest) {
      out.fail_check(std::string(part.name) + ": file or database digest at " +
                     std::to_string(kWorkers) + " workers differs from 1 worker");
    }
  }
}

}  // namespace

Outcome run_fleet_collect(const Args& args, Trace& trace) {
  Outcome out;
  const std::uint64_t seed = mix_seed(args.seed, 0xf1ee7);

  // Set-up: one warm-up round (fresh processes are not warm).
  {
    Trace::Scope span(trace, "warmup");
    const Round warm = run_round(seed, kWorkers, trace);
    for (const auto& p : warm.parts) {
      out.attempted += p.operations;
      out.failed += p.failed;
    }
  }
  const double setup_s = seconds_between(args.process_start, Clock::now());

  std::vector<Round> rounds;
  double peak_rss = 0.0;
  std::vector<double> node_s_per_s, rows_per_s, ms_per_epoch, export_rate;
  const auto measure_start = Clock::now();
  while (rounds.size() < kMinRounds ||
         seconds_between(measure_start, Clock::now()) < args.seconds) {
    trace.set_round(static_cast<std::uint32_t>(rounds.size() + 1));
    Trace::Scope span(trace, "round");
    Round round = run_round(seed, kWorkers, trace);
    bool broken = false;
    double wall = 0.0, node_s = 0.0, applied = 0.0, epochs = 0.0, exp_s = 0.0, exp_rows = 0.0;
    for (std::size_t p = 0; p < round.parts.size(); ++p) {
      const PartitionRun& r = round.parts[p];
      out.attempted += r.operations;
      out.failed += r.failed;
      wall += r.wall_s;
      node_s += static_cast<double>(partitions()[p].nodes) * static_cast<double>(kHorizonS);
      applied += static_cast<double>(r.report.records_applied);
      epochs += static_cast<double>(r.report.epochs);
      exp_s += r.export_s;
      exp_rows += static_cast<double>(r.export_rows);
      broken = broken || !r.ok;
    }
    if (!broken) {  // a broken round is counted in `failed` and has no figures
      node_s_per_s.push_back(node_s / wall);
      rows_per_s.push_back(applied / wall);
      ms_per_epoch.push_back(wall * 1e3 / epochs);
      export_rate.push_back(exp_rows / exp_s);
    }
    rounds.push_back(std::move(round));
    if (rounds.size() == kMinRounds) peak_rss = peak_rss_mb();
  }
  trace.set_round(0);

  // The determinism reference: the same round at 1 worker.
  Round reference;
  {
    Trace::Scope span(trace, "reference_1_worker");
    reference = run_round(seed, 1, trace);
  }
  for (const auto& p : reference.parts) {
    out.attempted += p.operations;
    out.failed += p.failed;
  }
  for (const Round& r : rounds) check_round(r, reference, out);

  out.samples["collect_node_s_per_s"] = node_s_per_s;
  out.samples["export_rows_per_s"] = export_rate;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["peak_rss_mb"] = peak_rss;
  out.end_to_end["collect_node_s_per_s"] = best_rate(node_s_per_s);
  out.end_to_end["ingest_rows_per_s"] = best_rate(rows_per_s);
  out.end_to_end["poll_to_panel_ms"] = best_time(ms_per_epoch);
  out.end_to_end["export_rows_per_s"] = best_rate(export_rate);

  // Per-layer: per-round means over the measured rounds.
  const double n = static_cast<double>(rounds.size());
  double window_wait = 0, stall = 0, steals = 0, telemetry = 0, out_bytes = 0, polls = 0,
         samples = 0, applied = 0;
  std::vector<double> bytes_per_node;
  for (const Round& r : rounds) {
    for (const PartitionRun& p : r.parts) {
      window_wait += p.report.window_wait_seconds;
      stall += p.report.ingest_stall_seconds;
      steals += static_cast<double>(p.report.shard_steals);
      telemetry += p.report.telemetry_seconds;
      out_bytes += static_cast<double>(p.output_bytes);
      polls += static_cast<double>(p.report.polls);
      samples += static_cast<double>(p.report.samples);
      applied += static_cast<double>(p.report.records_applied);
      bytes_per_node.push_back(p.report.bytes_per_node);
    }
  }
  const auto layers = trace.layer_times();
  auto self_per_round = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s / n;
  };
  out.per_layer["fleet.run_s"] = self_per_round("fleet.run");
  out.per_layer["moneq.output_write_s"] = self_per_round("moneq.output_write");
  out.per_layer["fleet.window_wait_s"] = window_wait / n;
  out.per_layer["fleet.ingest_stall_s"] = stall / n;
  out.per_layer["fleet.shard_steals"] = steals / n;
  out.per_layer["obs.telemetry_s"] = telemetry / n;
  out.per_layer["moneq.output_bytes"] = out_bytes / n;
  out.per_layer["moneq.polls"] = polls / n;
  out.per_layer["moneq.samples"] = samples / n;
  out.per_layer["tsdb.records_applied"] = applied / n;
  out.per_layer["fleet.bytes_per_node"] = median(bytes_per_node);

  out.counters = {{"rounds", n}, {"setup_s", setup_s}};
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    for (std::size_t p = 0; p < rounds[i].parts.size(); ++p) {
      const auto& rep = rounds[i].parts[p].report;
      const std::string k = "round" + std::to_string(i + 1) + "." + partitions()[p].name + ".";
      out.counters.emplace_back(k + "wall_s", rounds[i].parts[p].wall_s);
      out.counters.emplace_back(k + "report.wall_seconds", rep.wall_seconds);
      out.counters.emplace_back(k + "report.epochs", static_cast<double>(rep.epochs));
      out.counters.emplace_back(k + "report.polls", static_cast<double>(rep.polls));
      out.counters.emplace_back(k + "report.samples", static_cast<double>(rep.samples));
      out.counters.emplace_back(k + "report.records_applied",
                                static_cast<double>(rep.records_applied));
      out.counters.emplace_back(k + "report.self_scrape_rows",
                                static_cast<double>(rep.self_scrape_rows));
      out.counters.emplace_back(k + "report.shard_steals", static_cast<double>(rep.shard_steals));
      out.counters.emplace_back(k + "report.window_wait_seconds", rep.window_wait_seconds);
      out.counters.emplace_back(k + "report.ingest_stall_seconds", rep.ingest_stall_seconds);
      out.counters.emplace_back(k + "report.telemetry_seconds", rep.telemetry_seconds);
      out.counters.emplace_back(k + "report.bytes_per_node", rep.bytes_per_node);
      out.counters.emplace_back(k + "report.peak_rss_bytes",
                                static_cast<double>(rep.peak_rss_bytes));
    }
  }

  std::printf("fleet_collect: %zu rounds of %zu partitions, %d workers, %lld s horizon\n",
              rounds.size(), partitions().size(), kWorkers, static_cast<long long>(kHorizonS));
  return out;
}

bool selftest_fleet_collect(const Args& args) {
  Trace trace(false, args.process_start);
  const std::uint64_t seed = mix_seed(args.seed, 0xf1ee7);
  const Round round = run_round(seed, kWorkers, trace);
  const Round reference = run_round(seed, 1, trace);
  Outcome clean;
  check_round(round, reference, clean);
  if (!clean.correct) {
    for (const auto& e : clean.errors) std::printf("selftest fleet_collect: %s\n", e.c_str());
    return false;
  }
  bool ok = true;
  auto expect_caught = [&](const char* what, Round planted) {
    Outcome o;
    check_round(planted, reference, o);
    std::printf("selftest fleet_collect: planted %-28s -> %s\n", what,
                o.correct ? "MISSED" : "caught");
    ok = ok && !o.correct;
  };
  Round r = round;
  r.parts[0].node_power_rows += 1;
  expect_caught("one extra node-power row", r);
  r = round;
  r.parts[1].files_digest ^= 1;
  expect_caught("one wrong file digest", r);
  r = round;
  r.parts[0].db_digest ^= 1;
  expect_caught("one wrong database digest", r);
  r = round;
  r.parts[0].report.collection_total += Duration::millis(1);
  expect_caught("a wrong EMON cost", r);
  return ok;
}

}  // namespace perfbench
