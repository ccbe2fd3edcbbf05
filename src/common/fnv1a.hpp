#pragma once
// 64-bit FNV-1a: the stable, order-sensitive digest behind the
// byte-identity checks (tests, benches, envmond replay) and the fault
// injector's per-site seeds.  Integers mix as their little-endian
// bytes, so a digest does not depend on the host.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace envmon::common {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;

  Fnv1a& mix(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) byte(p[i]);
    return *this;
  }
  Fnv1a& mix(std::string_view s) { return mix(s.data(), s.size()); }
  Fnv1a& mix_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Fnv1a& mix_i64(std::int64_t v) { return mix_u64(static_cast<std::uint64_t>(v)); }
  Fnv1a& mix_f64(double d) { return mix_u64(std::bit_cast<std::uint64_t>(d)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char c) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ull;
  }

  std::uint64_t hash_ = kOffsetBasis;
};

}  // namespace envmon::common
