#include "daemon/framelog.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/posix_io.hpp"
#include "daemon/session.hpp"
#include "tsdb/checksum.hpp"
#include "tsdb/wire.hpp"

namespace envmon::daemon {

namespace wire = tsdb::wire;
using common::write_all;

namespace {

std::uint32_t get_u32(const std::vector<std::uint8_t>& data, std::size_t off) {
  return static_cast<std::uint32_t>(data[off]) |
         (static_cast<std::uint32_t>(data[off + 1]) << 8) |
         (static_cast<std::uint32_t>(data[off + 2]) << 16) |
         (static_cast<std::uint32_t>(data[off + 3]) << 24);
}

}  // namespace

FrameLogWriter::~FrameLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FrameLogWriter::open(const std::string& path, const FrameLogHeader& header) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) return Status::failed_precondition("frame log already open");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::internal("frame log open(" + path + "): " + std::strerror(errno));
  }
  wire::Writer w;
  w.u32(kFrameLogMagic);
  w.u32(kFrameLogVersion);
  w.u32(header.ver_min);
  w.u32(header.ver_max);
  w.u32(header.caps_supported);
  w.u32(header.max_frame_bytes);
  w.u32(header.max_batch_rows);
  w.u64(header.credit_window_rows);
  if (!write_all(fd, w.take())) {
    const Status err = common::io_error("frame log header write");
    ::close(fd);
    return err;
  }
  fd_ = fd;
  entries_ = 0;
  return Status::ok();
}

void FrameLogWriter::append(std::uint32_t session_id, std::span<const std::uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  wire::Writer w;
  w.u32(session_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(tsdb::crc32c(payload));
  w.bytes(payload);
  if (write_all(fd_, w.take())) ++entries_;
}

Status FrameLogWriter::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::ok();
  const bool synced = ::fsync(fd_) == 0;
  const bool closed = ::close(fd_) == 0;
  fd_ = -1;
  if (!synced || !closed) return Status::internal("frame log close failed");
  return Status::ok();
}

Result<FrameLog> read_frame_log(const std::string& path, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::not_found("frame log open(" + path + "): " + std::strerror(errno));
  }
  std::vector<std::uint8_t> data;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::internal("frame log read: " + err);
    }
    if (n == 0) break;
    data.insert(data.end(), buf, buf + n);
  }
  ::close(fd);

  constexpr std::size_t kHeaderBytes = 7 * 4 + 8;
  if (data.size() < kHeaderBytes) {
    return Status::invalid_argument("frame log shorter than its header");
  }
  wire::Reader r(data);
  if (r.u32() != kFrameLogMagic) return Status::invalid_argument("frame log bad magic");
  const std::uint32_t version = r.u32();
  if (version != kFrameLogVersion) {
    return Status::unsupported("frame log version " + std::to_string(version));
  }
  FrameLog log;
  log.header.ver_min = r.u32();
  log.header.ver_max = r.u32();
  log.header.caps_supported = r.u32();
  log.header.max_frame_bytes = r.u32();
  log.header.max_batch_rows = r.u32();
  log.header.credit_window_rows = r.u64();

  // Entries: stop at the first torn or corrupt one (clean prefix).
  std::size_t off = kHeaderBytes;
  while (off + 12 <= data.size()) {
    const std::uint32_t session_id = get_u32(data, off);
    const std::uint32_t len = get_u32(data, off + 4);
    const std::uint32_t crc = get_u32(data, off + 8);
    if (off + 12 + len > data.size()) break;  // torn tail
    const std::span<const std::uint8_t> payload(data.data() + off + 12, len);
    if (tsdb::crc32c(payload) != crc) break;  // corrupt tail
    FrameLogEntry entry;
    entry.session_id = session_id;
    entry.payload.assign(payload.begin(), payload.end());
    log.entries.push_back(std::move(entry));
    off += 12 + len;
  }
  if (off != data.size() && truncated != nullptr) *truncated = true;
  return log;
}

Status replay_frame_log(const std::string& path, tsdb::EnvDatabase& db, ReplayStats* stats) {
  auto loaded = read_frame_log(path);
  if (!loaded.is_ok()) return loaded.status();
  const FrameLog& log = loaded.value();

  SessionCore::Config base;
  base.server_ver_min = log.header.ver_min;
  base.server_ver_max = log.header.ver_max;
  base.caps_supported = log.header.caps_supported;
  base.max_frame_bytes = log.header.max_frame_bytes;
  base.max_batch_rows = log.header.max_batch_rows;
  base.credit_window_rows = log.header.credit_window_rows;

  std::unordered_map<std::uint32_t, SessionCore> sessions;
  ReplayStats local;
  std::uint64_t rows_total = 0;
  for (const FrameLogEntry& entry : log.entries) {
    ++local.frames;
    auto it = sessions.find(entry.session_id);
    if (it == sessions.end()) {
      SessionCore::Config cfg = base;
      cfg.session_id = entry.session_id;
      it = sessions.try_emplace(entry.session_id, cfg).first;
      ++local.sessions;
    }
    SessionCore& session = it->second;
    SessionCore::Action action = session.on_frame(entry.payload);
    if (action.batch.has_value()) {
      ++local.batches;
      const std::uint64_t offered = action.batch->records.size();
      const auto result = db.insert_batch(action.batch->records);
      local.rows_accepted += result.accepted;
      local.rows_rejected += result.rejected();
      rows_total += result.accepted;
      // Build the same deferred reply the live pump sends, so replay
      // exercises the identical post-application path.
      (void)session.make_batch_reply(action.batch->batch_seq, result, offered);
      session.release_credits(offered);
    }
    if (action.flush_token.has_value()) {
      if (db.durable()) {
        Status fs = db.flush();
        if (!fs.is_ok()) return fs;
      }
      (void)session.make_flush_reply(*action.flush_token, rows_total, db.durable());
    }
  }
  for (const auto& [id, session] : sessions) {
    (void)id;
    local.protocol_errors += session.protocol_errors();
  }
  if (stats != nullptr) *stats = local;
  return Status::ok();
}

}  // namespace envmon::daemon
