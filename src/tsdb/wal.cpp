#include "tsdb/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/posix_io.hpp"
#include "tsdb/checksum.hpp"
#include "tsdb/wire.hpp"

namespace envmon::tsdb {

using common::io_error;
using common::write_all;

namespace {

constexpr std::uint32_t kWalMagic = 0x4C575645;  // "EVWL"
constexpr std::uint32_t kWalFormatVersion = 1;
constexpr std::uint64_t kWalHeaderBytes = 16;
constexpr std::uint64_t kFrameHeaderBytes = 8;

}  // namespace

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::create(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) return io_error("create wal");
  path_ = path;
  wire::Writer header;
  header.u32(kWalMagic);
  header.u32(kWalFormatVersion);
  header.u64(0);  // reserved
  if (!write_all(fd_, header.span())) return io_error("write wal header");
  bytes_ = kWalHeaderBytes;
  frames_ = 0;
  return Status::ok();
}

Status WalWriter::open_for_append(const std::string& path, std::uint64_t resume_bytes) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) return io_error("open wal for append");
  path_ = path;
  if (::lseek(fd_, static_cast<off_t>(resume_bytes), SEEK_SET) < 0) {
    return io_error("seek wal");
  }
  bytes_ = resume_bytes;
  frames_ = 0;
  return Status::ok();
}

Status WalWriter::append(WalRecordType type, std::span<const std::uint8_t> payload) {
  if (fd_ < 0) return Status::failed_precondition("wal is not open");
  // The reader rejects frames past the ceiling, so writing one would
  // produce a log that recovery silently truncates — fail loudly here,
  // before any byte lands.  (>= because the type byte rides the frame.)
  if (payload.size() >= kWalMaxFrameBytes) {
    return Status::invalid_argument("wal record exceeds the maximum frame size");
  }
  wire::Writer frame;
  frame.u32(static_cast<std::uint32_t>(payload.size() + 1));
  // CRC covers the type byte plus the payload.
  std::uint32_t crc = crc32c({reinterpret_cast<const std::uint8_t*>(&type), 1});
  crc = crc32c(payload, crc);
  frame.u32(crc);
  frame.u8(static_cast<std::uint8_t>(type));
  frame.bytes(payload);
  if (!write_all(fd_, frame.span())) return io_error("append wal record");
  bytes_ += frame.size();
  ++frames_;
  return Status::ok();
}

Status WalWriter::sync() {
  if (fd_ < 0) return Status::ok();
  if (::fsync(fd_) != 0) return io_error("fsync wal");
  return Status::ok();
}

Status WalWriter::close() {
  if (fd_ < 0) return Status::ok();
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) return io_error("close wal");
  return Status::ok();
}

Status WalReader::open(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return Status::not_found("cannot stat wal file");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return io_error("open wal");
  buffer_.resize(size);
  std::size_t got = 0;
  while (got < buffer_.size()) {
    const ssize_t n = ::read(fd, buffer_.data() + got, buffer_.size() - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (got != buffer_.size()) return io_error("read wal");

  pos_ = 0;
  valid_bytes_ = 0;
  truncated_ = false;
  if (buffer_.size() < kWalHeaderBytes) {
    return Status::internal("wal shorter than its header");
  }
  wire::Reader header(std::span<const std::uint8_t>(buffer_).first(kWalHeaderBytes));
  if (header.u32() != kWalMagic || header.u32() != kWalFormatVersion) {
    return Status::internal("wal header magic/version mismatch");
  }
  pos_ = kWalHeaderBytes;
  valid_bytes_ = kWalHeaderBytes;
  return Status::ok();
}

std::optional<WalReader::Frame> WalReader::next() {
  if (truncated_) return std::nullopt;
  if (pos_ + kFrameHeaderBytes > buffer_.size()) {
    truncated_ = pos_ != buffer_.size();  // trailing partial header is torn
    return std::nullopt;
  }
  wire::Reader header(std::span<const std::uint8_t>(buffer_).subspan(pos_, kFrameHeaderBytes));
  const std::uint32_t length = header.u32();
  const std::uint32_t crc = header.u32();
  if (length == 0 || length > kWalMaxFrameBytes ||
      pos_ + kFrameHeaderBytes + length > buffer_.size()) {
    truncated_ = true;
    return std::nullopt;
  }
  const auto body = std::span<const std::uint8_t>(buffer_).subspan(
      pos_ + kFrameHeaderBytes, length);
  if (crc32c(body) != crc) {
    truncated_ = true;
    return std::nullopt;
  }
  pos_ += kFrameHeaderBytes + length;
  valid_bytes_ = pos_;
  return Frame{static_cast<WalRecordType>(body[0]), body.subspan(1)};
}

Status truncate_file(const std::string& path, std::uint64_t bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(bytes)) != 0) {
    return io_error("truncate wal tail");
  }
  return Status::ok();
}

}  // namespace envmon::tsdb
