// Golden digest of the sealed-block format and the fold grammar.
//
// A fixed-seed set of blocks — sensor-like walks spliced with NaN
// payloads, ±0, ±inf, and denormals — is sealed and digested: extent
// payloads (summary fields, subchunk sums, ts/value streams,
// subchunk bit offsets), seq sidecar streams, and decoded columns; then
// one aggregate() and one pushdown downsample() over a database holding
// such rows.  The constants were captured before the decode and fold
// kernels were last rewritten.  The RNG is consumed raw (no <random>
// distributions), so the inputs are the same on every standard library.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/fnv1a.hpp"
#include "tsdb/block.hpp"
#include "tsdb/database.hpp"

namespace envmon::tsdb {
namespace {

// Signed zeros and denormals (finite), then infinities and NaN payloads
// of both signs, quiet and signalling.
constexpr std::uint64_t kSpecials[] = {
    0x0000'0000'0000'0000ull, 0x8000'0000'0000'0000ull, 0x0000'0000'0000'0001ull,
    0x800f'ffff'ffff'ffffull, 0x0008'0000'0000'0000ull, 0x8000'0000'0000'0003ull,
    0x7ff0'0000'0000'0000ull, 0xfff0'0000'0000'0000ull, 0x7ff8'0000'0000'0001ull,
    0xfff8'dead'beef'0000ull, 0x7ff0'0000'0000'0001ull, 0xfff4'0000'0000'0000ull,
};
constexpr std::size_t kFiniteSpecials = 6;

struct Columns {
  std::vector<std::int64_t> ts;
  std::vector<double> values;
  std::vector<std::uint64_t> seq;
};

// 1 s ticks with occasional jitter, values walking in 0.01 W steps
// (inexact in binary, so any change to the fold's add order changes
// the sums), one of the first `specials` kSpecials spliced in with
// probability `special_rate`.
Columns make_columns(std::mt19937_64& rng, std::size_t rows, double special_rate,
                     std::size_t specials = std::size(kSpecials)) {
  const auto unit = [&rng] { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  Columns c;
  double v = 100.0 + 50.0 * unit();
  std::int64_t t = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    t += 1'000'000'000 + ((rng() & 7u) == 0 ? static_cast<std::int64_t>(rng() % 5'000'000) : 0);
    v += static_cast<double>(static_cast<int>(rng() % 9u) - 4) * 0.01;
    const bool special = unit() < special_rate;
    c.ts.push_back(t);
    c.values.push_back(special ? std::bit_cast<double>(kSpecials[rng() % specials]) : v);
    c.seq.push_back(i + 1);
  }
  return c;
}

constexpr std::size_t kBlockRows[] = {1, 2, 15, 16, 17, 31, 32, 33, 100, 257, 1000, 4096};

TEST(GoldenDigest, SealedBlocksAreByteStable) {
  std::mt19937_64 rng(0x5eed'0015u);
  common::Fnv1a h;
  std::vector<std::uint8_t> bytes;
  std::vector<std::int64_t> ts;
  std::vector<std::uint64_t> seq;
  std::vector<double> values;
  for (const double rate : {0.0, 0.05, 0.5}) {
    for (const std::size_t rows : kBlockRows) {
      const Columns c = make_columns(rng, rows, rate);
      for (const bool compress : {true, false}) {
        const Block b = Block::seal(c.ts, c.values, c.seq, compress);
        b.encode_extent(bytes);
        h.mix(bytes.data(), bytes.size());
        b.encode_seq_stream(bytes);
        h.mix(bytes.data(), bytes.size());
        b.decode_timestamps(ts);
        b.decode_seq(seq);
        b.decode_values(values);
        for (std::size_t i = 0; i < rows; ++i) {
          h.mix_i64(ts[i]).mix_u64(seq[i]).mix_f64(values[i]);
        }
      }
    }
  }
  EXPECT_EQ(h.value(), 0x8e392a7b522beb39ull);
}

TEST(GoldenDigest, AggregateAndDownsampleAreBitStable) {
  DatabaseOptions opts;
  opts.max_insert_rate_per_second = 0.0;
  opts.downsample_cache_capacity = 0;
  EnvDatabase db(opts);
  // Four boards of 5000 rows: one sealed 4096-row block each plus a
  // 904-row head, about one row in 20 a signed zero or denormal (a NaN
  // or infinity would pin every bucket and the aggregate to NaN/inf and
  // hide the value bits; the sealed-block test covers those).
  std::mt19937_64 rng(0x90'1de'7u);
  std::vector<Record> rows;
  for (int b = 0; b < 4; ++b) {
    const Columns c = make_columns(rng, 5000, 0.05, kFiniteSpecials);
    for (std::size_t i = 0; i < c.ts.size(); ++i) {
      rows.push_back(Record{sim::SimTime::from_ns(c.ts[i]), board_location(0, 0, b), "power_w",
                            c.values[i]});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Record& x, const Record& y) { return x.timestamp < y.timestamp; });
  for (std::size_t i = 0; i < rows.size(); i += 256) {
    const std::size_t n = std::min<std::size_t>(256, rows.size() - i);
    ASSERT_EQ(db.insert_batch(std::span<const Record>(rows).subspan(i, n)).accepted, n);
  }

  // The window cuts the sealed blocks mid-subchunk at both ends and
  // runs into the heads: summary pushdown, partial decode, and head
  // folds all contribute.
  QueryFilter f;
  f.metric = "power_w";
  f.from = sim::SimTime::from_seconds(777.3);
  f.to = sim::SimTime::from_seconds(4801.9);
  common::Fnv1a h;
  const EnvDatabase::Aggregate agg = db.aggregate(f);
  h.mix_u64(agg.count).mix_f64(agg.min).mix_f64(agg.max).mix_f64(agg.sum).mix_f64(agg.sum_sq);
  for (const auto& bucket : db.downsample(f, sim::Duration::seconds(64))) {
    h.mix_i64(bucket.start.ns()).mix_f64(bucket.mean).mix_u64(bucket.count);
  }
  EXPECT_GT(db.query_stats().pushdown_rows, 0u);
  EXPECT_EQ(h.value(), 0xaadc26c5360cb6c1ull);
}

}  // namespace
}  // namespace envmon::tsdb
