#pragma once
// Decode & fold kernels for the sealed-block read path (DESIGN.md §15
// has the rationale): XOR value decode, delta-of-delta timestamp/seq
// decode, and the folds behind aggregate(), downsample() pushdown
// misses, and seal-time summaries.  One contract binds them — byte
// identity: for any input bytes, garbage included, the decoders produce
// exactly the bits of the codec.hpp reference decoders, and the folds
// reproduce the canonical fold grammar bit for bit, so sealed bytes and
// query output never depend on the host.
//
// Canonical fold grammar (one subchunk run, n <= 16 rows):
//   sum     = for a full 16-row subchunk, the 4-lane tree
//             (l0 + l1) + (l2 + l3), lane lj folding v[j], v[j+4],
//             v[j+8], v[j+12] left-to-right from 0.0; for n < 16 (block
//             and head tails, bucket edges) a plain left-to-right fold
//             from 0.0, so a short run folds the same before and after
//             a seal.  A NaN result is the default quiet NaN
//             (0x7ff8000000000000): raw NaN payloads depend on codegen.
//   sum_sq  = the same shapes over v[i]*v[i], same NaN rule
//   min/max = over non-NaN rows; a zero result is -0.0 for min and +0.0
//             for max when that sign of zero occurred in the rows
//   finite  = count of non-NaN rows
// Block- and range-level folds combine subchunk folds left-to-right
// (FoldCombine), which makes summary pushdown bit-identical to
// decode-then-fold.
//
// All five functions are defined in simd.cpp, the one translation unit
// built with -ffp-contract=off: no fused multiply-add on any target, so
// the folds' IEEE operation graph is the grammar's.

#include <cstddef>
#include <cstdint>

namespace envmon::tsdb::simd {

// Canonical per-subchunk fold result (grammar above).
struct SubchunkFold {
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;  // valid iff finite > 0
  double max = 0.0;
  std::uint32_t finite = 0;  // non-NaN rows
};

// Canonical fold over one subchunk (n <= 16).
void fold_subchunk(const double* v, std::size_t n, SubchunkFold& out);
// Canonical sum alone (the downsample full-subchunk decode path).
[[nodiscard]] double sum_subchunk(const double* v, std::size_t n);

// The decoders are total: reads past the end of `stream` behave as if
// the stream were zero-padded (exactly the codec.hpp BitReader
// semantics), so corrupt lengths or offsets yield arbitrary values but
// never out-of-bounds reads.
//
// Decodes a whole XOR value column: `chunks` subchunk streams whose
// starting bit offsets are `chunk_offsets[c]`, kSubchunkRows rows per
// subchunk except the last; writes exactly `rows` doubles.
void decode_xor_column(const std::uint8_t* stream, std::size_t stream_bytes,
                       const std::uint32_t* chunk_offsets, std::size_t chunks, std::size_t rows,
                       double* out);
// Decodes one XOR subchunk from `bit_offset`; writes `rows` doubles.
void decode_xor_subchunk(const std::uint8_t* stream, std::size_t stream_bytes,
                         std::size_t bit_offset, std::size_t rows, double* out);
// Decodes `rows` values of a delta-of-delta stream (timestamps, seq).
void decode_dod(const std::uint8_t* stream, std::size_t stream_bytes, std::size_t rows,
                std::int64_t* out);

// Left-to-right combiner of subchunk folds into a block- or
// range-level fold (the second layer of the canonical grammar).  One
// compiled copy lives in simd.cpp so seal-time summaries, aggregation
// pushdown, and the decode-then-fold path all run literally the same
// instructions — finish() re-applies the canonical NaN and ±0 rules,
// which keeps the combine order-stable even through inf/NaN mixes.
struct FoldCombine {
  void add(const SubchunkFold& f);
  [[nodiscard]] SubchunkFold finish() const;

  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t finite = 0;
  bool min_has_neg_zero = false;
  bool max_has_pos_zero = false;
};

}  // namespace envmon::tsdb::simd
