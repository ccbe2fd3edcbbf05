#pragma once
// Order-sensitive content digest of a database's full record stream.
//
// Used by the daemon tests and bench to assert byte-identity: the same
// records applied in the same order — whether by an in-process writer,
// the daemon's pump, or a frame-log replay — produce the same digest.
// query() returns rows ordered by (timestamp, insertion sequence), so
// the digest covers both contents and application order.

#include <cstdint>

#include "common/fnv1a.hpp"
#include "tsdb/database.hpp"

namespace envmon::daemon {

inline std::uint64_t database_digest(const tsdb::EnvDatabase& db) {
  common::Fnv1a h;
  const auto rows = db.query({});
  h.mix_u64(rows.size());
  for (const auto& rec : rows) {
    h.mix_i64(rec.timestamp.ns());
    h.mix_i64(rec.location.rack);
    h.mix_i64(rec.location.midplane);
    h.mix_i64(rec.location.board);
    h.mix_i64(rec.location.card);
    h.mix_u64(rec.metric.size()).mix(rec.metric);
    h.mix_f64(rec.value);
  }
  return h.value();
}

}  // namespace envmon::daemon
