#pragma once
// POSIX file I/O helpers shared by the durable writers: the tsdb WAL
// and segment files and envmond's frame log.

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/status.hpp"

namespace envmon::common {

// Writes all of `bytes` to `fd`, resuming after short writes and
// retrying EINTR.  Returns false on any other error, or when write()
// makes no progress (returns 0, reported as EIO); errno holds the cause.
[[nodiscard]] bool write_all(int fd, std::span<const std::uint8_t> bytes);

// Reads exactly `len` bytes at `offset`, resuming after short reads and
// retrying EINTR.  Returns false on error or end of file.
[[nodiscard]] bool pread_exact(int fd, void* buf, std::size_t len, std::uint64_t offset);

// Status::internal("<what>: <strerror(errno)>").
[[nodiscard]] Status io_error(const char* what);

}  // namespace envmon::common
