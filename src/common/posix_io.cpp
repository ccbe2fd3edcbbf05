#include "common/posix_io.hpp"

#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace envmon::common {

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* src = bytes.data();
  std::size_t len = bytes.size();
  while (len > 0) {
    const ssize_t n = ::write(fd, src, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    src += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool pread_exact(int fd, void* buf, std::size_t len, std::uint64_t offset) {
  auto* dst = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::pread(fd, dst, len, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    dst += n;
    offset += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

Status io_error(const char* what) {
  return Status::internal(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace envmon::common
