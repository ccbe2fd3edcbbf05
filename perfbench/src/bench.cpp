#include "bench.hpp"

#include <filesystem>
#include <fstream>

#include "common/meminfo.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"collect_node_s_per_s", "node-s/s"},
    {"ingest_rows_per_s", "rows/s"},
    {"poll_to_panel_ms", "ms"},
    {"export_rows_per_s", "rows/s"},
};

const std::vector<MetricSpec> kPerLayer = {
    // fleet / obs / moneq (fleet_collect)
    {"fleet.run_s", "s"},
    {"fleet.window_wait_s", "s"},
    {"fleet.ingest_stall_s", "s"},
    {"fleet.shard_steals", "count"},
    {"fleet.bytes_per_node", "B"},
    {"obs.telemetry_s", "s"},
    {"moneq.output_write_s", "s"},
    {"moneq.output_bytes", "B"},
    {"moneq.polls", "count"},
    {"moneq.samples", "count"},
    {"tsdb.records_applied", "count"},
    // daemon (envmond_ingest)
    {"daemon.send_batch_s", "s"},
    {"daemon.drain_s", "s"},
    {"daemon.flush_s", "s"},
    {"daemon.stop_s", "s"},
    {"daemon.batches", "count"},
    {"daemon.frames", "count"},
    {"daemon.rows_accepted", "count"},
    {"daemon.rows_rejected", "count"},
    {"daemon.frame_log_bytes", "B"},
    // tsdb durable (envmond_ingest)
    {"recovery_s", "s"},
    {"disk_bytes_per_row", "B/row"},
    {"tsdb.wal_bytes", "B"},
    {"tsdb.wal_frames", "count"},
    {"tsdb.extents_appended", "count"},
    {"tsdb.dedup_hits", "count"},
    {"tsdb.segment_bytes", "B"},
    {"tsdb.open_s", "s"},
    {"tsdb.wal_frames_replayed", "count"},
    {"tsdb.rows_recovered", "count"},
    {"tsdb.blocks_recovered", "count"},
    // tsdb read/write (live_dashboard)
    {"tsdb.insert_batch_s", "s"},
    {"tsdb.seal_blocks_s", "s"},
    {"tsdb.query_s", "s"},
    {"tsdb.downsample_s", "s"},
    {"tsdb.aggregate_s", "s"},
    {"tsdb.cache_hits", "count"},
    {"tsdb.cache_misses", "count"},
    {"tsdb.cache_hit_ratio", "ratio"},
    {"tsdb.export_s", "s"},
    {"tsdb.rows_scanned", "count"},
    {"tsdb.rows_decoded", "count"},
    {"tsdb.rows_returned", "count"},
    {"tsdb.decoded_per_returned", "ratio"},
    {"tsdb.pushdown_fraction", "ratio"},
    {"tsdb.bytes_per_row", "B/row"},
};

namespace {
// Spans open on this thread, innermost last: the parent of a new span.
thread_local std::vector<std::int32_t> t_open_spans;
}  // namespace

std::int32_t Trace::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.round = round_.load(std::memory_order_relaxed);
  std::int32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int32_t>(spans_.size());
    span.start_ns = now_ns();
    spans_.push_back(span);
  }
  t_open_spans.push_back(id);
  return id;
}

void Trace::close(std::int32_t id) {
  const std::int64_t end = now_ns();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
}

std::map<std::string, Trace::LayerTime> Trace::layer_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children of each span, as [start, end) intervals clipped to it.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0 || s.end_ns < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    children[static_cast<std::size_t>(s.parent)].emplace_back(std::max(s.start_ns, p.start_ns),
                                                              std::min(s.end_ns, p.end_ns));
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0 || s.round == 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (const auto& [a, b] : kids) {
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    LayerTime& lt = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    lt.total_s += static_cast<double>(dur) * 1e-9;
    lt.self_s += static_cast<double>(dur - covered) * 1e-9;
    ++lt.spans;
  }
  return out;
}

bool Trace::write(const std::string& path,
                  const std::vector<std::pair<std::string, double>>& counters) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", counters[i].second);
    out << (i ? ", " : "") << '"' << counters[i].first << "\": " << buf;
  }
  out << "},\n\"layers\": {";
  const auto layers = layer_times();
  bool first = true;
  for (const auto& [name, lt] : layers) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "{\"spans\": %llu, \"total_s\": %.9f, \"self_s\": %.9f}",
                  static_cast<unsigned long long>(lt.spans), lt.total_s, lt.self_s);
    out << (first ? "" : ", ") << '"' << name << "\": " << buf;
    first = false;
  }
  out << "},\n\"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"round\"],\n"
         "\"spans\": [\n";
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "[\"" << s.name << "\", " << s.start_ns << ", " << s.end_ns
        << ", " << s.parent << ", " << s.round << ']';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::uint64_t digest_records(const std::vector<envmon::tsdb::Record>& rows) {
  Digest d;
  d.u64(rows.size());
  for (const auto& r : rows) {
    d.u64(static_cast<std::uint64_t>(r.timestamp.ns()));
    const int loc[4] = {r.location.rack, r.location.midplane, r.location.board, r.location.card};
    d.bytes(loc, sizeof loc);
    d.str(r.metric);
    d.bytes(&r.value, sizeof r.value);
  }
  return d.value();
}

double peak_rss_mb() {
  return static_cast<double>(envmon::common::peak_rss_bytes()) / (1024.0 * 1024.0);
}

bool fresh_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) return false;
  return std::filesystem::create_directories(path, ec) && !ec;
}

std::uint64_t directory_bytes(const std::string& path) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
