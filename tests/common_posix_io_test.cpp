#include "common/posix_io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace envmon::common {
namespace {

TEST(PosixIo, WriteAllDeliversEveryByteThroughAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::vector<std::uint8_t> bytes(4096);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_TRUE(write_all(fds[1], bytes));
  ::close(fds[1]);
  std::vector<std::uint8_t> got;
  std::uint8_t buf[512];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) got.insert(got.end(), buf, buf + n);
  ::close(fds[0]);
  EXPECT_EQ(got, bytes);
}

TEST(PosixIo, WriteAllFailsOnAClosedFd) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  ::close(fds[1]);
  const std::uint8_t byte = 1;
  errno = 0;
  EXPECT_FALSE(write_all(fds[1], {&byte, 1}));
  EXPECT_EQ(errno, EBADF);
  const Status s = io_error("append");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message().rfind("append: ", 0), 0u) << s.message();
}

TEST(PosixIo, PreadExactReadsAtOffsetAndFailsPastTheEnd) {
  char path[] = "/tmp/envmon_posix_io_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  const std::string text = "0123456789";
  ASSERT_TRUE(write_all(fd, {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
  char buf[4] = {};
  EXPECT_TRUE(pread_exact(fd, buf, 4, 3));
  EXPECT_EQ(std::string(buf, 4), "3456");
  EXPECT_FALSE(pread_exact(fd, buf, 4, 8));  // only 2 bytes left
  ::close(fd);
  ::unlink(path);
}

}  // namespace
}  // namespace envmon::common
