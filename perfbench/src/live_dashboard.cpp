// live_dashboard: an in-memory EnvDatabase preloaded in set-up with a
// history of 512 boards x 7 domains.  Each cycle appends one poll for
// every series, then two viewers refresh the same panel set: latest-value
// range queries per board, midplane downsample panels (fewer distinct
// panels than the 16-entry downsample cache) and rack aggregates.  The
// store seals on a fixed cadence of one seal per round, and every few
// cycles one full-metric export scan runs.  The read path does most of
// the work; the first viewer always misses the downsample cache (the
// append invalidated it) and the second can hit it, so half the panel
// requests repeat one made since the last append.  The light write
// stream keeps ingest and sealing on the measured path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "signal_model.hpp"
#include "tsdb/database.hpp"

namespace perfbench {
namespace {

namespace tsdb = envmon::tsdb;
using envmon::sim::Duration;
using envmon::sim::SimTime;

constexpr int kBoards = 512;  // 16 racks x 2 midplanes x 16 boards
constexpr int kSeries = kBoards * kDomains;
constexpr int kMidplanes = kBoards / 16;
constexpr int kRacks = kBoards / 32;
constexpr int kHistoryPolls = 1024;  // one poll per virtual second
constexpr int kRoundCycles = 64;     // the seal cadence: one seal per round
constexpr int kExportEvery = 16;     // cycles between full-metric exports
constexpr int kCheckCycle = kRoundCycles / 2;
constexpr int kLatestBoards = 32;
constexpr std::int64_t kLatestWindowS = 10;
constexpr int kPanels = 12;
constexpr std::int64_t kPanelWindowS = 600;
constexpr std::int64_t kBucketS = 10;
constexpr std::int64_t kRackWindowS = 300;
// An export pulls one metric across every board over the last 1,024 s
// (the preloaded history's length), so its size does not grow with the
// run's length.
constexpr std::int64_t kExportWindowS = 1024;
// Mirror capacity reserved up front: growing it by doubling mid-run
// would add steps to peak RSS that depend on how many rounds a run does.
constexpr std::size_t kMirrorPolls = 4096;

SimTime at_s(std::int64_t s) { return SimTime::from_ns(s * 1'000'000'000); }

// The fixed panel set both viewers refresh, drawn from the seed.
struct PanelSet {
  std::vector<int> boards;                   // latest-value panels
  std::vector<std::pair<int, int>> panels;   // (midplane, domain) downsample panels
};

PanelSet make_panels(std::uint64_t seed) {
  Rng rng(seed);
  PanelSet p;
  while (p.boards.size() < kLatestBoards) {
    const int b = static_cast<int>(rng.below(kBoards));
    if (std::find(p.boards.begin(), p.boards.end(), b) == p.boards.end()) p.boards.push_back(b);
  }
  while (p.panels.size() < kPanels) {
    const std::pair<int, int> q{static_cast<int>(rng.below(kMidplanes)),
                                static_cast<int>(rng.below(kDomains))};
    if (std::find(p.panels.begin(), p.panels.end(), q) == p.panels.end()) p.panels.push_back(q);
  }
  return p;
}

tsdb::Location midplane_of(int midplane) {
  return tsdb::midplane_location(midplane / 2, midplane % 2);
}

// The store under test plus a plain mirror of every value it was given:
// mirror[s][p] is series s (board * kDomains + domain) at poll p, in
// units of 2^-10 W.
struct Store {
  tsdb::EnvDatabase db;
  std::vector<PowerWalk> walks;
  std::vector<std::vector<std::int32_t>> mirror;
  std::vector<tsdb::Record> batch;
  std::int64_t polls = 0;

  explicit Store(std::uint64_t seed) : mirror(kSeries) {
    for (auto& m : mirror) m.reserve(kMirrorPolls);
    walks.reserve(kSeries);
    for (int s = 0; s < kSeries; ++s) {
      walks.emplace_back(mix_seed(seed, static_cast<std::uint64_t>(s)), s % kDomains);
    }
    batch.reserve(kSeries);
    for (int s = 0; s < kSeries; ++s) {
      batch.push_back({SimTime{}, board_location_of(s / kDomains), domain_metric(s % kDomains), 0.0});
    }
  }

  // Fills `batch` with the next poll of every series, in series order.
  void next_poll() {
    for (int s = 0; s < kSeries; ++s) {
      const std::int32_t u = walks[static_cast<std::size_t>(s)].next();
      mirror[static_cast<std::size_t>(s)].push_back(u);
      auto& rec = batch[static_cast<std::size_t>(s)];
      rec.timestamp = at_s(polls);
      rec.value = to_watts(u);
    }
  }
  [[nodiscard]] std::int32_t value(int series, std::int64_t poll) const {
    return mirror[static_cast<std::size_t>(series)][static_cast<std::size_t>(poll)];
  }
};

// What one viewer got back.
struct ViewerResult {
  std::vector<std::vector<tsdb::Record>> latest;
  std::vector<std::vector<tsdb::EnvDatabase::Bucket>> panels;
  std::vector<tsdb::EnvDatabase::Aggregate> racks;
};

ViewerResult refresh(const tsdb::EnvDatabase& db, const PanelSet& set, std::int64_t now_s,
                     Trace& trace) {
  ViewerResult v;
  for (const int b : set.boards) {
    Trace::Scope span(trace, "tsdb.query");
    tsdb::QueryFilter f;
    f.location_prefix = board_location_of(b);
    f.from = at_s(now_s - kLatestWindowS + 1);
    f.to = at_s(now_s);
    v.latest.push_back(db.query(f));
  }
  for (const auto& [midplane, domain] : set.panels) {
    Trace::Scope span(trace, "tsdb.downsample");
    tsdb::QueryFilter f;
    f.location_prefix = midplane_of(midplane);
    f.metric = domain_metric(domain);
    f.from = at_s(now_s - kPanelWindowS + 1);
    f.to = at_s(now_s);
    v.panels.push_back(db.downsample(f, Duration::seconds(kBucketS)));
  }
  for (int rack = 0; rack < kRacks; ++rack) {
    Trace::Scope span(trace, "tsdb.aggregate");
    tsdb::QueryFilter f;
    f.location_prefix = tsdb::rack_location(rack);
    f.from = at_s(now_s - kRackWindowS + 1);
    f.to = at_s(now_s);
    v.racks.push_back(db.aggregate(f));
  }
  return v;
}

bool same_record(const tsdb::Record& r, std::int64_t poll, int series, std::int32_t units) {
  return r.timestamp == at_s(poll) && r.location == board_location_of(series / kDomains) &&
         r.metric == domain_metric(series % kDomains) && r.value == to_watts(units);
}

// Checks one viewer's panels against the mirror, at poll `now` (the
// newest).  Sums of 2^-10 multiples are exact, so everything compares
// bit for bit.
void check_viewer(const Store& st, const PanelSet& set, std::int64_t now, const ViewerResult& v,
                  Outcome& out) {
  for (std::size_t i = 0; i < set.boards.size(); ++i) {
    const int b = set.boards[i];
    const auto& got = i < v.latest.size() ? v.latest[i] : std::vector<tsdb::Record>{};
    std::size_t k = 0;
    bool same = true;
    for (std::int64_t p = std::max<std::int64_t>(0, now - kLatestWindowS + 1); same && p <= now;
         ++p) {
      for (int d = 0; same && d < kDomains; ++d, ++k) {
        const int s = b * kDomains + d;
        same = k < got.size() && same_record(got[k], p, s, st.value(s, p));
      }
    }
    if (!same || k != got.size()) {
      out.fail_check("latest-value query for board " + board_location_of(b).to_string() +
                     " differs from the mirror");
      return;
    }
  }
  for (std::size_t i = 0; i < set.panels.size(); ++i) {
    const auto [midplane, domain] = set.panels[i];
    const std::int64_t from = std::max<std::int64_t>(0, now - kPanelWindowS + 1);
    std::vector<tsdb::EnvDatabase::Bucket> want;
    for (std::int64_t p = from; p <= now; ++p) {
      const std::int64_t start = (p / kBucketS) * kBucketS;
      if (want.empty() || want.back().start != at_s(start)) want.push_back({at_s(start), 0.0, 0});
      std::int64_t units = 0;
      for (int b = midplane * 16; b < midplane * 16 + 16; ++b) {
        units += st.value(b * kDomains + domain, p);
      }
      want.back().mean += static_cast<double>(units);  // exact: integer-valued sum
      want.back().count += 16;
    }
    for (auto& w : want) {
      w.mean = w.mean / static_cast<double>(kUnitsPerWatt) / static_cast<double>(w.count);
    }
    const auto& got =
        i < v.panels.size() ? v.panels[i] : std::vector<tsdb::EnvDatabase::Bucket>{};
    bool same = got.size() == want.size();
    for (std::size_t k = 0; same && k < got.size(); ++k) {
      same = got[k].start == want[k].start && got[k].count == want[k].count &&
             got[k].mean == want[k].mean;
    }
    if (!same) {
      out.fail_check("downsample panel for midplane " + midplane_of(midplane).to_string() + "/" +
                     domain_metric(domain) + " differs from the mirror");
      return;
    }
  }
  for (int rack = 0; rack < kRacks; ++rack) {
    const std::int64_t from = std::max<std::int64_t>(0, now - kRackWindowS + 1);
    std::int64_t sum = 0, sum_sq = 0;
    std::int32_t lo = INT32_MAX, hi = INT32_MIN;
    std::size_t count = 0;
    for (int s = rack * 32 * kDomains; s < (rack + 1) * 32 * kDomains; ++s) {
      for (std::int64_t p = from; p <= now; ++p) {
        const std::int32_t u = st.value(s, p);
        sum += u;
        sum_sq += static_cast<std::int64_t>(u) * u;
        lo = std::min(lo, u);
        hi = std::max(hi, u);
        ++count;
      }
    }
    const double unit = static_cast<double>(kUnitsPerWatt);
    const auto& got = rack < static_cast<int>(v.racks.size()) ? v.racks[static_cast<std::size_t>(rack)]
                                                              : tsdb::EnvDatabase::Aggregate{};
    if (got.count != count || got.sum != static_cast<double>(sum) / unit ||
        got.sum_sq != static_cast<double>(sum_sq) / (unit * unit) || got.min != to_watts(lo) ||
        got.max != to_watts(hi)) {
      out.fail_check("aggregate for rack " + tsdb::rack_location(rack).to_string() +
                     " differs from the mirror");
      return;
    }
  }
}

tsdb::QueryFilter export_filter(int domain, std::int64_t now_s) {
  tsdb::QueryFilter f;
  f.metric = domain_metric(domain);
  f.from = at_s(now_s - kExportWindowS + 1);
  f.to = at_s(now_s);
  return f;
}

// A full-metric export holds every row of the metric in its window,
// ordered by timestamp and then by insertion (board order within a poll).
void check_export(const Store& st, int domain, std::int64_t now, const std::vector<tsdb::Record>& got,
                  Outcome& out) {
  const std::int64_t from = std::max<std::int64_t>(0, now - kExportWindowS + 1);
  std::size_t k = 0;
  bool same = got.size() == static_cast<std::size_t>(now - from + 1) * kBoards;
  for (std::int64_t p = from; same && p <= now; ++p) {
    for (int b = 0; same && b < kBoards; ++b, ++k) {
      const int s = b * kDomains + domain;
      same = same_record(got[k], p, s, st.value(s, p));
    }
  }
  if (!same) out.fail_check("export of " + domain_metric(domain) + " differs from the mirror");
}

// Appends one poll; seals on the round's last cycle.
struct Counts {
  std::uint64_t operations = 0;
  std::uint64_t failed = 0;
};

void append_poll(Store& st, bool seal, Counts& c, Trace& trace) {
  {
    Trace::Scope span(trace, "tsdb.insert_batch");
    ++c.operations;
    if (!st.db.insert_batch(st.batch).all_accepted()) ++c.failed;
  }
  ++st.polls;
  if (seal) {
    Trace::Scope span(trace, "tsdb.seal_blocks");
    ++c.operations;
    st.db.seal_blocks(1);
  }
}

void preload(Store& st, int polls, Counts& c, Trace& trace) {
  Trace::Scope span(trace, "preload");
  for (int p = 0; p < polls; ++p) {
    st.next_poll();
    append_poll(st, (p + 1) % kRoundCycles == 0, c, trace);
  }
}

}  // namespace

Outcome run_live_dashboard(const Args& args, Trace& trace) {
  Outcome out;
  const std::uint64_t seed = mix_seed(args.seed, 0xda5b);
  const PanelSet set = make_panels(mix_seed(seed, 1));
  auto st = std::make_unique<Store>(mix_seed(seed, 2));
  Counts counts;
  preload(*st, kHistoryPolls, counts, trace);

  std::vector<double> all_cycle_ms;
  double peak_rss = 0.0;
  std::vector<double> cycle_ms_mean, rows_per_s, node_s_per_s, export_rate;
  double check_s = 0.0;
  double setup_s = 0.0;
  std::uint32_t round = 0;
  const std::uint32_t warmup_rounds = 1;
  tsdb::EnvDatabase::QueryStats stats_start{};
  std::uint64_t rows_returned = 0, rows_aggregated = 0, downsample_calls = 0;
  Clock::time_point measure_start;
  int export_domain = 0;
  while (true) {
    const bool warm = round < warmup_rounds;
    if (!warm && round == warmup_rounds) {
      setup_s = seconds_between(args.process_start, Clock::now()) - check_s;
      measure_start = Clock::now();
      stats_start = st->db.query_stats();
    } else if (!warm && round >= warmup_rounds + kMinRounds &&
               seconds_between(measure_start, Clock::now()) >= args.seconds) {
      break;
    }
    trace.set_round(warm ? 0 : round - warmup_rounds + 1);
    Trace::Scope round_span(trace, warm ? "warmup" : "round");
    double cycles_s = 0.0, export_s = 0.0, exported = 0.0;
    for (int cycle = 0; cycle < kRoundCycles; ++cycle) {
      st->next_poll();
      const std::int64_t now = st->polls;  // the poll about to be appended
      ViewerResult views[2];
      const auto t0 = Clock::now();
      {
        Trace::Scope span(trace, "cycle");
        append_poll(*st, cycle == kRoundCycles - 1, counts, trace);
        for (auto& v : views) {
          Trace::Scope viewer(trace, "viewer");
          v = refresh(st->db, set, now, trace);
        }
      }
      const double dt = seconds_between(t0, Clock::now());
      cycles_s += dt;
      counts.operations += 2 * (set.boards.size() + set.panels.size() + kRacks);
      if (!warm) {
        all_cycle_ms.push_back(dt * 1e3);
        downsample_calls += 2 * set.panels.size();
        for (const auto& v : views) {
          for (const auto& q : v.latest) rows_returned += q.size();
          for (const auto& p : v.panels) {
            for (const auto& b : p) rows_aggregated += b.count;
          }
          for (const auto& a : v.racks) rows_aggregated += a.count;
        }
      }
      if (cycle == kCheckCycle) {
        const auto tc = Clock::now();
        for (const auto& v : views) check_viewer(*st, set, now, v, out);
        check_s += seconds_between(tc, Clock::now());
      }
      if ((cycle + 1) % kExportEvery == 0) {
        std::vector<tsdb::Record> rows;
        {
          Trace::Scope span(trace, "tsdb.export");
          ++counts.operations;
          const tsdb::QueryFilter f = export_filter(export_domain, now);
          const auto te = Clock::now();
          rows = st->db.query(f);
          export_s += seconds_between(te, Clock::now());
        }
        exported += static_cast<double>(rows.size());
        if (!warm) rows_returned += rows.size();
        const auto tc = Clock::now();
        check_export(*st, export_domain, now, rows, out);
        check_s += seconds_between(tc, Clock::now());
        export_domain = (export_domain + 1) % kDomains;
      }
    }
    if (!warm) {
      cycle_ms_mean.push_back(cycles_s * 1e3 / kRoundCycles);
      rows_per_s.push_back(static_cast<double>(kSeries) * kRoundCycles / cycles_s);
      node_s_per_s.push_back(static_cast<double>(kBoards) * kRoundCycles / cycles_s);
      export_rate.push_back(exported / export_s);
    }
    ++round;
    if (round == warmup_rounds + kMinRounds) peak_rss = peak_rss_mb();
  }
  trace.set_round(0);
  const std::uint32_t measured = round - warmup_rounds;
  out.attempted = counts.operations;
  out.failed = counts.failed;

  out.notes.push_back(tail_note("poll-to-panel latency per cycle", all_cycle_ms));
  out.samples["poll_to_panel_ms"] = cycle_ms_mean;
  out.samples["export_rows_per_s"] = export_rate;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["peak_rss_mb"] = peak_rss;
  out.end_to_end["poll_to_panel_ms"] = best_time(cycle_ms_mean);
  out.end_to_end["ingest_rows_per_s"] = best_rate(rows_per_s);
  out.end_to_end["collect_node_s_per_s"] = best_rate(node_s_per_s);
  out.end_to_end["export_rows_per_s"] = best_rate(export_rate);

  const double n = static_cast<double>(measured);
  const auto layers = trace.layer_times();
  auto self_per_round = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s / n;
  };
  const auto end = st->db.query_stats();
  const double hits = static_cast<double>(end.cache_hits - stats_start.cache_hits);
  const double misses = static_cast<double>(end.cache_misses - stats_start.cache_misses);
  const double decoded = static_cast<double>(end.rows_decoded - stats_start.rows_decoded);
  const double pushdown = static_cast<double>(end.pushdown_rows - stats_start.pushdown_rows);
  out.per_layer["tsdb.insert_batch_s"] = self_per_round("tsdb.insert_batch");
  out.per_layer["tsdb.seal_blocks_s"] = self_per_round("tsdb.seal_blocks");
  out.per_layer["tsdb.query_s"] = self_per_round("tsdb.query");
  out.per_layer["tsdb.downsample_s"] = self_per_round("tsdb.downsample");
  out.per_layer["tsdb.aggregate_s"] = self_per_round("tsdb.aggregate");
  out.per_layer["tsdb.export_s"] = self_per_round("tsdb.export");
  out.per_layer["tsdb.cache_hits"] = hits / n;
  out.per_layer["tsdb.cache_misses"] = misses / n;
  out.per_layer["tsdb.cache_hit_ratio"] = hits / static_cast<double>(downsample_calls);
  out.per_layer["tsdb.rows_scanned"] =
      static_cast<double>(end.rows_scanned - stats_start.rows_scanned) / n;
  out.per_layer["tsdb.rows_decoded"] = decoded / n;
  out.per_layer["tsdb.rows_returned"] = static_cast<double>(rows_returned) / n;
  out.per_layer["tsdb.decoded_per_returned"] = decoded / static_cast<double>(rows_returned);
  out.per_layer["tsdb.pushdown_fraction"] = pushdown / static_cast<double>(rows_aggregated);
  out.per_layer["tsdb.bytes_per_row"] =
      static_cast<double>(st->db.bytes_used()) / static_cast<double>(st->db.size());

  out.counters = {{"rounds", n},
                  {"setup_s", setup_s},
                  {"rows", static_cast<double>(st->db.size())},
                  {"series", static_cast<double>(st->db.series_count())},
                  {"sealed_blocks", static_cast<double>(st->db.sealed_block_count())},
                  {"query_stats.queries", static_cast<double>(end.queries)},
                  {"query_stats.rows_scanned", static_cast<double>(end.rows_scanned)},
                  {"query_stats.rows_decoded", static_cast<double>(end.rows_decoded)},
                  {"query_stats.series_touched", static_cast<double>(end.series_touched)},
                  {"query_stats.cache_hits", static_cast<double>(end.cache_hits)},
                  {"query_stats.cache_misses", static_cast<double>(end.cache_misses)},
                  {"query_stats.blocks_sealed", static_cast<double>(end.blocks_sealed)},
                  {"query_stats.pushdown_rows", static_cast<double>(end.pushdown_rows)},
                  {"query_stats.pushdown_chunks", static_cast<double>(end.pushdown_chunks)}};
  for (std::size_t i = 0; i < cycle_ms_mean.size(); ++i) {
    out.counters.emplace_back("round" + std::to_string(i + 1) + ".cycle_ms_mean", cycle_ms_mean[i]);
    out.counters.emplace_back("round" + std::to_string(i + 1) + ".export_rows_per_s",
                              export_rate[i]);
  }
  std::printf("live_dashboard: %u rounds of %d cycles over %zu rows in %zu series\n", measured,
              kRoundCycles, st->db.size(), st->db.series_count());
  return out;
}

bool selftest_live_dashboard(const Args& args) {
  Trace trace(false, args.process_start);
  const std::uint64_t seed = mix_seed(args.seed, 0xda5b);
  const PanelSet set = make_panels(mix_seed(seed, 1));
  auto st = std::make_unique<Store>(mix_seed(seed, 2));
  Counts counts;
  preload(*st, static_cast<int>(kPanelWindowS) + kRoundCycles, counts, trace);
  st->next_poll();
  const std::int64_t now = st->polls;
  append_poll(*st, false, counts, trace);
  const ViewerResult v = refresh(st->db, set, now, trace);
  const auto exported = st->db.query(export_filter(3, now));
  Outcome clean;
  check_viewer(*st, set, now, v, clean);
  check_export(*st, 3, now, exported, clean);
  if (counts.failed != 0 || !clean.correct) {
    for (const auto& e : clean.errors) std::printf("selftest live_dashboard: %s\n", e.c_str());
    return false;
  }
  bool ok = true;
  auto expect_caught = [&](const char* what, const ViewerResult& planted) {
    Outcome o;
    check_viewer(*st, set, now, planted, o);
    std::printf("selftest live_dashboard: planted %-28s -> %s\n", what,
                o.correct ? "MISSED" : "caught");
    ok = ok && !o.correct;
  };
  ViewerResult p = v;
  p.latest[7][13].value += 1.0 / 1024.0;
  expect_caught("one wrong row value", p);
  p = v;
  p.panels[4][20].mean = std::nextafter(p.panels[4][20].mean, 1e9);
  expect_caught("one wrong bucket mean", p);
  p = v;
  p.panels[2].pop_back();
  expect_caught("one missing bucket", p);
  p = v;
  p.racks[9].sum_sq += 1.0;
  expect_caught("one wrong aggregate", p);
  {
    auto planted = exported;
    std::swap(planted[100], planted[101]);
    Outcome o;
    check_export(*st, 3, now, planted, o);
    std::printf("selftest live_dashboard: planted %-28s -> %s\n", "two export rows swapped",
                o.correct ? "MISSED" : "caught");
    ok = ok && !o.correct;
  }
  return ok;
}

}  // namespace perfbench
