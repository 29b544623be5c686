#ifndef SKETCH_SKETCH_COUNTER_TABLE_H_
#define SKETCH_SKETCH_COUNTER_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/prng.h"
#include "common/wrapping.h"
#include "kernels/block_hasher.h"
#include "kernels/fast_div.h"
#include "sketch/table_header.h"
#include "sketch/width_mode.h"
#include "stream/update.h"
#include "telemetry/stats.h"

/// \file
/// The hashed counter table behind Count-Min, Count-Sketch and AMS: the
/// linear map that adds coordinate a's value to counter (j, h_j(a)) of
/// every row j, times a random sign g_j(a) in the signed families. The
/// families differ only in how they read it back (the minimum, the median,
/// the median of the rows' sums of squares), so each keeps only its seeds,
/// its blob format and its estimators.

namespace sketch {

/// The row-seed rule of Count-Min and Count-Sketch (2-wise bucket and sign
/// hashes of row j). The matrix forms in `src/cs` use it too, so a sketch
/// and its explicit matrix implement the same linear map.
inline uint64_t RowBucketSeed(uint64_t seed, uint64_t row) {
  return SplitMix64Once(seed * 2 + row);
}
inline uint64_t RowSignSeed(uint64_t seed, uint64_t row) {
  return SplitMix64Once(~seed * 2 + row + 0x9e37ULL);
}

/// How a family derives row j's hash functions from the sketch seed. The
/// bucket hash is 2-wise; a family without signs leaves `sign_seed` null.
struct RowHashing {
  uint64_t (*bucket_seed)(uint64_t seed, uint64_t row);
  uint64_t (*sign_seed)(uint64_t seed, uint64_t row);
  int sign_independence;
};

/// A depth x width row-major table of int64_t counters with one bucket
/// hasher (and, when signed, one sign hasher) per row. Counter arithmetic
/// wraps mod 2^64.
class CounterTable {
 public:
  /// Keys hashed per row at a time by ApplyBatch and ForEachRowValue.
  static constexpr std::size_t kBlock = 256;

  /// In `WidthMode::kPow2` the width is rounded up to a power of two;
  /// width() reports the rounded value (see width_mode.h).
  CounterTable(uint64_t width, uint64_t depth, uint64_t seed, WidthMode mode,
               const RowHashing& hashing);

  uint64_t width() const { return width_; }
  uint64_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  WidthMode width_mode() const { return width_mode_; }
  uint64_t SizeInCounters() const { return width_ * depth_; }

  uint64_t BucketOf(uint64_t row, uint64_t item) const {
    return bucket_rows_[row].BucketOne(item, width_div_);
  }
  /// ±1; only for a signed table.
  int64_t SignOf(uint64_t row, uint64_t item) const {
    return sign_rows_[row].SignOne(item);
  }
  int64_t CounterAt(uint64_t row, uint64_t bucket) const {
    return counters_[row * width_ + bucket];
  }
  int64_t& CounterAt(uint64_t row, uint64_t bucket) {
    return counters_[row * width_ + bucket];
  }
  std::span<const int64_t> counters() const { return counters_; }
  std::span<int64_t> counters() { return counters_; }
  SketchOpCounters& ops() { return ops_; }

  /// Adds the (signed) delta to the item's counter in every row.
  void Update(const StreamUpdate& update);

  /// Equivalent to Update() on each element. Per block of kBlock updates,
  /// one row's buckets (and signs) are computed in a batch (BlockHasher)
  /// and applied contiguously before the next row, so the hash
  /// coefficients stay in registers and each row's counter lines are
  /// touched together. Counter addition commutes, so the table — and
  /// therefore its blob — is bit-identical to per-item Update() calls.
  void ApplyBatch(UpdateSpan updates);

  /// Calls emit(i, value) for i < n <= kBlock, where value is keys[i]'s
  /// counter in `row`, times its sign in a signed table: the batched
  /// query-side read, through the same BlockHasher kernels ApplyBatch uses.
  template <typename Emit>
  void ForEachRowValue(uint64_t row, const uint64_t* keys, std::size_t n,
                       Emit&& emit) const {
    uint64_t buckets[kBlock];
    bucket_rows_[row].BucketBlock(keys, n, width_div_, buckets);
    const int64_t* counters = counters_.data() + row * width_;
    if (sign_rows_.empty()) {
      for (std::size_t i = 0; i < n; ++i) emit(i, counters[buckets[i]]);
      return;
    }
    int64_t signs[kBlock];
    sign_rows_[row].SignBlock(keys, n, signs);
    for (std::size_t i = 0; i < n; ++i) {
      emit(i, WrapMul(signs[i], counters[buckets[i]]));
    }
  }

  /// Same width, depth, seed and width mode: the same linear map.
  bool SameGeometry(const CounterTable& other) const;

  /// Counter-wise sum with a table of the same geometry (the caller
  /// checks SameGeometry), operation counts included.
  void Add(const CounterTable& other);

  /// Per row, the sum of counter products with a same-geometry table.
  std::vector<int64_t> RowInnerProducts(const CounterTable& other) const;

  /// Heap bytes owned by the table: counters, hashers, their coefficients.
  uint64_t DynamicMemoryBytes() const;

  /// Geometry, occupancy histogram, balls-in-bins distinct-key and
  /// collision estimates and operation counts, typed `format.family`; the
  /// caller fills in memory_bytes.
  StatsSnapshot Introspect(const TableFormat& format) const;

  /// Appends the blob header and the counters (see table_header.h).
  void AppendSerialized(const TableFormat& format,
                        std::vector<uint8_t>* out) const;

 private:
  template <bool kSigned>
  void UpdateRows(const StreamUpdate& update);
  template <bool kSigned>
  void ApplyBlocks(UpdateSpan updates);

  uint64_t width_;
  uint64_t depth_;
  uint64_t seed_;
  WidthMode width_mode_;
  FastDiv64 width_div_;                   // divide-free `% width_`;
                                          // BucketBlock masks at pow2 widths
  std::vector<BlockHasher> bucket_rows_;  // one 2-wise bucket hash per row
  std::vector<BlockHasher> sign_rows_;    // one sign hash per row, or none
  std::vector<int64_t> counters_;         // row-major depth x width
  SketchOpCounters ops_;                  // lifetime update/merge counts
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_COUNTER_TABLE_H_
