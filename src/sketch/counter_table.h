#ifndef SKETCH_SKETCH_COUNTER_TABLE_H_
#define SKETCH_SKETCH_COUNTER_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/wrapping.h"
#include "kernels/hashed_rows.h"
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

/// A depth x width row-major table of int64_t counters over one
/// `HashedRows`. Counter arithmetic wraps mod 2^64.
class CounterTable {
 public:
  /// Keys hashed per row at a time by ApplyBatch and ForEachRowValue.
  static constexpr std::size_t kBlock = HashedRows::kBlock;

  /// In `WidthMode::kPow2` the width is rounded up to a power of two;
  /// width() reports the rounded value (see width_mode.h).
  CounterTable(uint64_t width, uint64_t depth, uint64_t seed, WidthMode mode,
               const RowHashing& hashing);

  uint64_t width() const { return rows_.width(); }
  uint64_t depth() const { return rows_.depth(); }
  uint64_t seed() const { return seed_; }
  WidthMode width_mode() const { return width_mode_; }
  uint64_t SizeInCounters() const { return counters_.size(); }

  uint64_t BucketOf(uint64_t row, uint64_t item) const {
    return rows_.BucketOf(row, item);
  }
  /// ±1; only for a signed table.
  int64_t SignOf(uint64_t row, uint64_t item) const {
    return rows_.SignOf(row, item);
  }
  int64_t CounterAt(uint64_t row, uint64_t bucket) const {
    return counters_[row * width() + bucket];
  }
  int64_t& CounterAt(uint64_t row, uint64_t bucket) {
    return counters_[row * width() + bucket];
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
    const int64_t* counters = counters_.data() + row * width();
    rows_.ForEachCell(row, keys, n,
                      [&](std::size_t i, uint64_t bucket, int64_t sign) {
                        emit(i, WrapMul(sign, counters[bucket]));
                      });
  }

  /// Same width, depth, seed and width mode: the same linear map.
  bool SameGeometry(const CounterTable& other) const;

  /// Counter-wise sum with a table of the same geometry (the caller
  /// checks SameGeometry), operation counts included.
  void Add(const CounterTable& other);

  /// Per row, the sum of counter products with a same-geometry table.
  std::vector<int64_t> RowInnerProducts(const CounterTable& other) const;

  /// Heap bytes owned by the table: counters and row hashers.
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

  uint64_t seed_;
  WidthMode width_mode_;
  HashedRows rows_;                // width() is the mode-applied width
  std::vector<int64_t> counters_;  // row-major depth x width
  SketchOpCounters ops_;           // lifetime update/merge counts
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_COUNTER_TABLE_H_
