// envbench — the end-to-end benchmark driver.
//
//   envbench --workload <fleet_collect|envmond_ingest|live_dashboard>
//            --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//   envbench --selftest
//
// Prints a human-readable summary, then, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 records a span
// around every public call the benchmark makes, writes the spans and the
// API's own counters to <out>/trace-<workload>-<seed>.json, and reports
// the per-layer metrics instead.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

int usage() {
  std::fprintf(stderr,
               "usage: envbench --workload <fleet_collect|envmond_ingest|live_dashboard> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n"
               "       envbench --selftest [--out <dir>]\n");
  return 2;
}

void print_metric(std::string& json, const perfbench::MetricSpec& spec, double value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  json += json.back() == '{' ? "" : ", ";
  json += std::string("\"") + spec.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
          spec.unit + "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start = perfbench::Clock::now();
  bool selftest = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (a == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (a == "--out" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "envbench: cannot create %s\n", args.out_dir.c_str());
    return 2;
  }

  if (selftest) {
    const bool ok = perfbench::selftest_fleet_collect(args) &&
                    perfbench::selftest_envmond_ingest(args) &&
                    perfbench::selftest_live_dashboard(args);
    // The traced run's cost per span, for the tracing-overhead figure.
    perfbench::Trace trace(true, args.process_start);
    trace.set_round(1);
    constexpr int kSpans = 200'000;
    const auto t0 = perfbench::Clock::now();
    for (int i = 0; i < kSpans; ++i) perfbench::Trace::Scope span(trace, "selftest.span");
    std::printf("selftest: one traced span costs %.0f ns\n",
                perfbench::seconds_between(t0, perfbench::Clock::now()) * 1e9 / kSpans);
    std::printf("selftest: %s\n", ok ? "every planted fault was caught" : "FAILED");
    return ok ? 0 : 1;
  }
  if (!have_seed || !have_seconds || !have_trace || !(args.seconds > 0.0)) return usage();

  perfbench::Trace trace(args.trace, args.process_start);
  Outcome out;
  if (args.workload == "fleet_collect") {
    out = perfbench::run_fleet_collect(args, trace);
  } else if (args.workload == "envmond_ingest") {
    out = perfbench::run_envmond_ingest(args, trace);
  } else if (args.workload == "live_dashboard") {
    out = perfbench::run_live_dashboard(args, trace);
  } else {
    return usage();
  }

  // Every workload defines every end-to-end metric; a per-layer metric
  // of a layer the workload does not exercise reads 0.
  for (const auto& spec : perfbench::kEndToEnd) {
    if (out.end_to_end.count(spec.name) == 0) {
      out.fail_check(std::string("no value for ") + spec.name);
    }
  }
  for (const auto& e : out.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  const auto value_of = [](const std::map<std::string, double>& values, const char* name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  // The summary shows the end-to-end figures in both modes (a traced
  // run's include the tracing overhead); the JSON line carries the
  // per-layer figures when traced.
  for (const auto& spec : perfbench::kEndToEnd) {
    std::printf("  %-28s %14.6g %s\n", spec.name, value_of(out.end_to_end, spec.name), spec.unit);
  }
  if (args.trace) {
    for (const auto& spec : perfbench::kPerLayer) {
      std::printf("  %-28s %14.6g %s\n", spec.name, value_of(out.per_layer, spec.name), spec.unit);
    }
  }
  for (const auto& note : out.notes) std::printf("  %s\n", note.c_str());
  for (const auto& [name, v] : out.samples) {
    std::printf("  samples %s:", name.c_str());
    for (const double x : v) std::printf(" %.6g", x);
    std::printf("\n");
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!trace.write(path, out.counters)) {
      std::fprintf(stderr, "envbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  trace written to %s\n", path.c_str());
  }

  const auto& specs = args.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  const auto& values = args.trace ? out.per_layer : out.end_to_end;
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (const auto& spec : specs) print_metric(json, spec, value_of(values, spec.name));
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
