// envmond_ingest: an in-process envmond Server on a Unix socket with
// frame-log capture on, over a store opened on a directory.  Two client
// connections (two tenants, disjoint boards) form a closed loop: each
// epoch both send one batch and wait for both replies before the next
// epoch, and a durable flush ends the ingest.  The server is then
// stopped, the store is destroyed without close() (the crash model) and
// reopened.  Framing, sessions, the pump, WAL append, sealing, segment
// writes, fsync and recovery replay do nearly all the work.
//
// All rows of an epoch carry the epoch's timestamp.  The store's
// watermark is global across tenants, so a batch stamped earlier than
// another tenant's already-applied batch would be rejected whole; the
// lockstep epochs keep every batch at or after the watermark whatever
// order the two sessions are applied in.

#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "daemon/client.hpp"
#include "daemon/framelog.hpp"
#include "daemon/server.hpp"
#include "signal_model.hpp"
#include "tsdb/database.hpp"

namespace perfbench {
namespace {

namespace daemon = envmon::daemon;
namespace tsdb = envmon::tsdb;
using envmon::sim::SimTime;

constexpr int kClients = 2;
constexpr int kBoardsPerClient = 9;
// One epoch more than a block's 4096 rows per series, plus a tail: every
// series seals exactly once per round and leaves 64 rows in its head for
// recovery to replay from the WAL.
constexpr int kEpochs = 4096 + 64;
constexpr std::int64_t kEpochNs = 100'000'000;  // 100 ms of virtual time per epoch

struct SeriesKey {
  tsdb::Location location;
  int domain = 0;
};

// Every batch both clients send, built once in set-up and sent unchanged
// every round.  values[c][s][e] is client c's series s at epoch e.
struct Inputs {
  std::vector<SeriesKey> series[kClients];
  std::vector<std::vector<std::int32_t>> values[kClients];
  std::vector<std::vector<tsdb::Record>> batches[kClients];  // [epoch]
  std::uint64_t rows_per_round = 0;
};

Inputs make_inputs(std::uint64_t seed, int epochs) {
  Inputs in;
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBoardsPerClient; ++b) {
      const int board = c * kBoardsPerClient + b;
      for (int d = 0; d < kDomains; ++d) {
        in.series[c].push_back({board_location_of(board), d});
        in.values[c].push_back(
            power_walk(mix_seed(seed, static_cast<std::uint64_t>(board * kDomains + d)), d,
                       static_cast<std::size_t>(epochs)));
      }
    }
    in.batches[c].resize(static_cast<std::size_t>(epochs));
    for (int e = 0; e < epochs; ++e) {
      auto& batch = in.batches[c][static_cast<std::size_t>(e)];
      batch.reserve(in.series[c].size());
      for (std::size_t s = 0; s < in.series[c].size(); ++s) {
        batch.push_back({SimTime::from_ns(e * kEpochNs), in.series[c][s].location,
                         domain_metric(in.series[c][s].domain),
                         to_watts(in.values[c][s][static_cast<std::size_t>(e)])});
      }
      in.rows_per_round += batch.size();
    }
  }
  return in;
}

struct Paths {
  std::string dir, socket, frame_log, store;
};

// What one round measured and observed.
struct RoundResult {
  std::uint64_t operations = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows_acked = 0;
  double ingest_s = 0.0;
  std::vector<double> epoch_ms;  // every epoch's send-to-both-replies latency
  double recovery_s = 0.0;
  double readback_s = 0.0;
  std::uint64_t readback_rows = 0;
  std::uint64_t disk_bytes = 0;
  std::uint64_t frame_log_bytes = 0;
  std::uint64_t live_digest = 0;
  daemon::Server::Stats server;
  tsdb::EnvDatabase::DurableStats durable;
  tsdb::EnvDatabase::RecoveryInfo recovery;
  // Per series, what the recovered store returned (for the check).
  std::vector<std::vector<tsdb::Record>> recovered[kClients];
};

bool ok(RoundResult& r, const envmon::Status& s) {
  ++r.operations;
  if (s.is_ok()) return true;
  ++r.failed;
  std::fprintf(stderr, "envmond_ingest: %s\n", s.to_string().c_str());
  return false;
}

RoundResult run_round(const Inputs& in, const Paths& paths, bool live_digest, Trace& trace) {
  RoundResult r;
  if (!fresh_directory(paths.store)) {
    ++r.operations;
    ++r.failed;
    return r;
  }
  auto db = std::make_unique<tsdb::EnvDatabase>();
  {
    Trace::Scope span(trace, "tsdb.create");
    if (!ok(r, db->open(paths.store))) return r;
  }
  daemon::ServerOptions sopt;
  sopt.socket_path = paths.socket;
  sopt.frame_log_path = paths.frame_log;
  auto server = std::make_unique<daemon::Server>(*db, sopt);
  {
    Trace::Scope span(trace, "daemon.start");
    if (!ok(r, server->start())) return r;
  }
  std::vector<std::unique_ptr<daemon::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    daemon::Client::Options copt;
    copt.socket_path = paths.socket;
    copt.tenant = c == 0 ? "tenant-a" : "tenant-b";
    clients.push_back(std::make_unique<daemon::Client>(copt));
    Trace::Scope span(trace, "daemon.connect");
    if (!ok(r, clients.back()->connect())) return r;
  }

  std::vector<double>& epoch_ms = r.epoch_ms;
  epoch_ms.reserve(in.batches[0].size());
  const auto t0 = Clock::now();
  for (std::size_t e = 0; e < in.batches[0].size(); ++e) {
    Trace::Scope epoch_span(trace, "epoch");
    const auto te = Clock::now();
    for (int c = 0; c < kClients; ++c) {
      Trace::Scope span(trace, "daemon.send_batch");
      if (!ok(r, clients[static_cast<std::size_t>(c)]->send_batch(in.batches[c][e]))) return r;
    }
    for (int c = 0; c < kClients; ++c) {
      Trace::Scope span(trace, "daemon.drain");
      if (!ok(r, clients[static_cast<std::size_t>(c)]->drain())) return r;
    }
    epoch_ms.push_back(seconds_between(te, Clock::now()) * 1e3);
  }
  {
    Trace::Scope span(trace, "daemon.flush");
    auto reply = clients[0]->flush();
    if (!ok(r, reply.status())) return r;
    if (!reply.value().durable) {
      ++r.failed;
      std::fprintf(stderr, "envmond_ingest: flush reply is not durable\n");
    }
  }
  r.ingest_s = seconds_between(t0, Clock::now());
  for (const auto& c : clients) {
    r.rows_acked += c->totals().rows_accepted;
    Trace::Scope span(trace, "daemon.close");
    if (!ok(r, c->close())) return r;
  }
  {
    Trace::Scope span(trace, "daemon.stop");
    server->stop();
  }
  r.server = server->stats();
  server.reset();
  clients.clear();
  if (live_digest) r.live_digest = digest_records(db->query({}));
  r.durable = db->durable_stats();
  r.disk_bytes = directory_bytes(paths.store);
  r.frame_log_bytes = directory_bytes(paths.dir) - r.disk_bytes;

  db.reset();  // the crash: destroyed without close()
  db = std::make_unique<tsdb::EnvDatabase>();
  {
    Trace::Scope span(trace, "tsdb.open");
    const auto t = Clock::now();
    if (!ok(r, db->open(paths.store))) return r;
    r.recovery_s = seconds_between(t, Clock::now());
  }
  r.recovery = db->recovery_info();

  // Read every series back, one range scan each.
  const auto tq = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    for (const SeriesKey& key : in.series[c]) {
      Trace::Scope span(trace, "tsdb.query");
      ++r.operations;
      tsdb::QueryFilter f;
      f.location_prefix = key.location;
      f.metric = domain_metric(key.domain);
      r.recovered[c].push_back(db->query(f));
      r.readback_rows += r.recovered[c].back().size();
    }
  }
  r.readback_s = seconds_between(tq, Clock::now());
  return r;
}

// Every acknowledged row must come back from the crashed store, per
// series, in order, bit for bit.
void check_round(const Inputs& in, const RoundResult& r, Outcome& out) {
  if (r.rows_acked != in.rows_per_round) {
    out.fail_check("acknowledged " + std::to_string(r.rows_acked) + " of " +
                   std::to_string(in.rows_per_round) + " rows");
  }
  for (int c = 0; c < kClients; ++c) {
    if (r.recovered[c].size() != in.series[c].size()) {
      out.fail_check("read back " + std::to_string(r.recovered[c].size()) + " series of client " +
                     std::to_string(c));
      continue;
    }
    for (std::size_t s = 0; s < in.series[c].size(); ++s) {
      const auto& got = r.recovered[c][s];
      const auto& want = in.values[c][s];
      const SeriesKey& key = in.series[c][s];
      bool same = got.size() == want.size();
      for (std::size_t e = 0; same && e < got.size(); ++e) {
        same = got[e].timestamp.ns() == static_cast<std::int64_t>(e) * kEpochNs &&
               got[e].location == key.location && got[e].metric == domain_metric(key.domain) &&
               got[e].value == to_watts(want[e]);
      }
      if (!same) {
        out.fail_check("series " + key.location.to_string() + "/" + domain_metric(key.domain) +
                       " after crash-reopen differs from the rows sent (" +
                       std::to_string(got.size()) + " rows, sent " +
                       std::to_string(want.size()) + ")");
        return;
      }
    }
  }
}

// The frame log must replay into exactly the live store.
void check_replay(const Paths& paths, std::uint64_t live_digest, Outcome& out) {
  tsdb::EnvDatabase replayed;
  daemon::ReplayStats stats;
  const auto st = daemon::replay_frame_log(paths.frame_log, replayed, &stats);
  if (!st.is_ok()) {
    out.fail_check("frame-log replay failed: " + st.to_string());
    return;
  }
  if (digest_records(replayed.query({})) != live_digest) {
    out.fail_check("frame-log replay differs from the live store");
  }
}

Paths make_paths(const Args& args) {
  Paths p;
  p.dir = args.out_dir + "/envmond-" + std::to_string(::getpid());
  p.socket = p.dir + "/envmond.sock";
  p.frame_log = p.dir + "/frames.evfl";
  p.store = p.dir + "/store";
  return p;
}

}  // namespace

Outcome run_envmond_ingest(const Args& args, Trace& trace) {
  Outcome out;
  const Paths paths = make_paths(args);
  if (!fresh_directory(paths.dir)) {
    out.fail_check("cannot create " + paths.dir);
    return out;
  }
  const std::uint64_t seed = mix_seed(args.seed, 0xe4d);
  Inputs in;
  {
    Trace::Scope span(trace, "make_inputs");
    in = make_inputs(seed, kEpochs);
  }

  // Set-up ends with one warm-up round; its capture feeds the replay
  // check, whose time is not set-up.
  double check_s = 0.0;
  {
    Trace::Scope span(trace, "warmup");
    RoundResult warm = run_round(in, paths, /*live_digest=*/true, trace);
    out.attempted += warm.operations;
    out.failed += warm.failed;
    const auto tc = Clock::now();
    if (warm.failed == 0) {
      check_round(in, warm, out);
      check_replay(paths, warm.live_digest, out);
    }
    check_s = seconds_between(tc, Clock::now());
  }
  const double setup_s = seconds_between(args.process_start, Clock::now()) - check_s;

  std::vector<double> rows_per_s, node_s_per_s, epoch_ms_mean, export_rate, recovery, disk_per_row;
  std::vector<double> all_epoch_ms;
  double peak_rss = 0.0;
  std::vector<RoundResult> kept;  // counters of every measured round
  const auto measure_start = Clock::now();
  std::uint32_t rounds = 0;
  while (rounds < kMinRounds || seconds_between(measure_start, Clock::now()) < args.seconds) {
    trace.set_round(++rounds);
    RoundResult r;
    {
      Trace::Scope span(trace, "round");
      r = run_round(in, paths, false, trace);
    }
    out.attempted += r.operations;
    out.failed += r.failed;
    if (r.failed != 0) continue;  // counted; a broken round has no figures
    check_round(in, r, out);
    const double acked = static_cast<double>(r.rows_acked);
    rows_per_s.push_back(acked / r.ingest_s);
    // Node-seconds of telemetry acknowledged: every board covers the
    // virtual span of every epoch.
    node_s_per_s.push_back(static_cast<double>(kClients * kBoardsPerClient) *
                           static_cast<double>(kEpochs) * static_cast<double>(kEpochNs) * 1e-9 /
                           r.ingest_s);
    // Mean acknowledgement latency per epoch over the whole round,
    // seal and flush included.
    epoch_ms_mean.push_back(r.ingest_s * 1e3 / kEpochs);
    all_epoch_ms.insert(all_epoch_ms.end(), r.epoch_ms.begin(), r.epoch_ms.end());
    r.epoch_ms.clear();
    export_rate.push_back(static_cast<double>(r.readback_rows) / r.readback_s);
    recovery.push_back(r.recovery_s);
    disk_per_row.push_back(static_cast<double>(r.disk_bytes) / acked);
    for (auto& v : r.recovered) v.clear();
    kept.push_back(std::move(r));
    if (kept.size() == kMinRounds) peak_rss = peak_rss_mb();
  }
  trace.set_round(0);
  std::error_code ec;
  std::filesystem::remove_all(paths.dir, ec);

  out.notes.push_back(tail_note("epoch latency", all_epoch_ms));
  out.samples["ingest_rows_per_s"] = rows_per_s;
  out.samples["poll_to_panel_ms"] = epoch_ms_mean;
  out.samples["export_rows_per_s"] = export_rate;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["peak_rss_mb"] = peak_rss;
  out.end_to_end["ingest_rows_per_s"] = best_rate(rows_per_s);
  out.end_to_end["collect_node_s_per_s"] = best_rate(node_s_per_s);
  out.end_to_end["poll_to_panel_ms"] = best_time(epoch_ms_mean);
  out.end_to_end["export_rows_per_s"] = best_rate(export_rate);

  const double n = static_cast<double>(kept.size());
  const auto layers = trace.layer_times();
  auto self_per_round = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s / n;
  };
  auto mean_of = [&](auto field) {
    double s = 0.0;
    for (const auto& r : kept) s += static_cast<double>(field(r));
    return s / n;
  };
  out.per_layer["recovery_s"] = median(recovery);
  out.per_layer["disk_bytes_per_row"] = median(disk_per_row);
  out.per_layer["daemon.send_batch_s"] = self_per_round("daemon.send_batch");
  out.per_layer["daemon.drain_s"] = self_per_round("daemon.drain");
  out.per_layer["daemon.flush_s"] = self_per_round("daemon.flush");
  out.per_layer["daemon.stop_s"] = self_per_round("daemon.stop");
  out.per_layer["tsdb.open_s"] = self_per_round("tsdb.open");
  out.per_layer["daemon.batches"] = mean_of([](const RoundResult& r) { return r.server.batches; });
  out.per_layer["daemon.frames"] = mean_of([](const RoundResult& r) { return r.server.frames; });
  out.per_layer["daemon.rows_accepted"] =
      mean_of([](const RoundResult& r) { return r.server.rows_accepted; });
  out.per_layer["daemon.rows_rejected"] =
      mean_of([](const RoundResult& r) { return r.server.rows_rejected; });
  out.per_layer["daemon.frame_log_bytes"] =
      mean_of([](const RoundResult& r) { return r.frame_log_bytes; });
  out.per_layer["tsdb.wal_bytes"] = mean_of([](const RoundResult& r) { return r.durable.wal_bytes; });
  out.per_layer["tsdb.wal_frames"] =
      mean_of([](const RoundResult& r) { return r.durable.wal_frames; });
  out.per_layer["tsdb.extents_appended"] =
      mean_of([](const RoundResult& r) { return r.durable.extents_appended; });
  out.per_layer["tsdb.dedup_hits"] =
      mean_of([](const RoundResult& r) { return r.durable.dedup_hits; });
  out.per_layer["tsdb.segment_bytes"] =
      mean_of([](const RoundResult& r) { return r.durable.disk_bytes; });
  out.per_layer["tsdb.wal_frames_replayed"] =
      mean_of([](const RoundResult& r) { return r.recovery.wal_frames_replayed; });
  out.per_layer["tsdb.rows_recovered"] =
      mean_of([](const RoundResult& r) { return r.recovery.rows_recovered; });
  out.per_layer["tsdb.blocks_recovered"] =
      mean_of([](const RoundResult& r) { return r.recovery.blocks_recovered; });

  out.counters = {{"rounds", n}, {"setup_s", setup_s}, {"rows_per_round",
                  static_cast<double>(in.rows_per_round)}};
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const RoundResult& r = kept[i];
    const std::string k = "round" + std::to_string(i + 1) + ".";
    out.counters.emplace_back(k + "ingest_s", r.ingest_s);
    out.counters.emplace_back(k + "recovery_s", r.recovery_s);
    out.counters.emplace_back(k + "readback_s", r.readback_s);
    out.counters.emplace_back(k + "server.frames", static_cast<double>(r.server.frames));
    out.counters.emplace_back(k + "server.batches", static_cast<double>(r.server.batches));
    out.counters.emplace_back(k + "server.flushes", static_cast<double>(r.server.flushes));
    out.counters.emplace_back(k + "durable.wal_bytes", static_cast<double>(r.durable.wal_bytes));
    out.counters.emplace_back(k + "durable.disk_bytes", static_cast<double>(r.durable.disk_bytes));
    out.counters.emplace_back(k + "durable.segments_open",
                              static_cast<double>(r.durable.segments_open));
    out.counters.emplace_back(k + "recovery.wal_bytes_replayed",
                              static_cast<double>(r.recovery.wal_bytes_replayed));
    out.counters.emplace_back(k + "recovery.recovery_seconds", r.recovery.recovery_seconds);
  }
  std::printf("envmond_ingest: %zu rounds of %d epochs x %d clients x %d rows\n", kept.size(),
              kEpochs, kClients, kBoardsPerClient * kDomains);
  return out;
}

bool selftest_envmond_ingest(const Args& args) {
  Trace trace(false, args.process_start);
  const Paths paths = make_paths(args);
  if (!fresh_directory(paths.dir)) return false;
  const Inputs in = make_inputs(mix_seed(args.seed, 0xe4d), 256);
  RoundResult r = run_round(in, paths, true, trace);
  bool ok = r.failed == 0;
  Outcome clean;
  check_round(in, r, clean);
  check_replay(paths, r.live_digest, clean);
  if (!ok || !clean.correct) {
    for (const auto& e : clean.errors) std::printf("selftest envmond_ingest: %s\n", e.c_str());
    return false;
  }
  auto report = [&](const char* what, const Outcome& o) {
    std::printf("selftest envmond_ingest: planted %-28s -> %s\n", what,
                o.correct ? "MISSED" : "caught");
    ok = ok && !o.correct;
  };
  {
    RoundResult planted = r;
    planted.recovered[1][5][100].value += 1.0 / 1024.0;
    Outcome o;
    check_round(in, planted, o);
    report("one wrong recovered value", o);
  }
  {
    RoundResult planted = r;
    planted.recovered[0][3].pop_back();
    Outcome o;
    check_round(in, planted, o);
    report("one lost recovered row", o);
  }
  {
    Outcome o;
    check_replay(paths, r.live_digest ^ 1, o);
    report("one wrong live-store digest", o);
  }
  std::error_code ec;
  std::filesystem::remove_all(paths.dir, ec);
  return ok;
}

}  // namespace perfbench
