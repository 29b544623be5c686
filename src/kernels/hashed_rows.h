#ifndef SKETCH_KERNELS_HASHED_ROWS_H_
#define SKETCH_KERNELS_HASHED_ROWS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "kernels/block_hasher.h"
#include "kernels/fast_div.h"

/// \file
/// The rows of the survey's sparse hashed matrix: row j sends coordinate i
/// to bucket h_j(i), times a random sign g_j(i) in a signed map. Count-Min,
/// Count-Sketch and AMS (through `CounterTable`), the sparse-recovery maps
/// of `src/cs` and the sparse JL, OSNAP and Count-Sketch embeddings of
/// `src/dimred` all hash through one `HashedRows`; each keeps only its seed
/// rule.

namespace sketch {

/// How a map derives row j's hash functions from its seed. The bucket hash
/// is 2-wise; an unsigned map leaves `sign_seed` null.
struct RowHashing {
  uint64_t (*bucket_seed)(uint64_t seed, uint64_t row);
  uint64_t (*sign_seed)(uint64_t seed, uint64_t row);
  int sign_independence;
};

/// The row-seed rule of Count-Min and Count-Sketch, shared by the matrix
/// forms and recovery maps in `src/cs`, so a sketch and its explicit matrix
/// implement the same linear map.
inline uint64_t RowBucketSeed(uint64_t seed, uint64_t row) {
  return SplitMix64Once(seed * 2 + row);
}
inline uint64_t RowSignSeed(uint64_t seed, uint64_t row) {
  return SplitMix64Once(~seed * 2 + row + 0x9e37ULL);
}
inline constexpr RowHashing kCountMinRows = {RowBucketSeed, nullptr, 0};
inline constexpr RowHashing kCountSketchRows = {RowBucketSeed, RowSignSeed, 2};

/// One bucket hasher per row, one sign hasher per row when signed, and the
/// divide-free width they reduce by.
class HashedRows {
 public:
  /// Keys per block in the batched methods.
  static constexpr std::size_t kBlock = 256;

  HashedRows(uint64_t width, uint64_t depth, uint64_t seed,
             const RowHashing& hashing);

  uint64_t width() const { return width_div_.divisor(); }
  uint64_t depth() const { return bucket_rows_.size(); }
  bool is_signed() const { return !sign_rows_.empty(); }
  const FastDiv64& width_div() const { return width_div_; }

  uint64_t BucketOf(uint64_t row, uint64_t key) const {
    return bucket_rows_[row].BucketOne(key, width_div_);
  }
  /// ±1; only for a signed map.
  int64_t SignOf(uint64_t row, uint64_t key) const {
    return sign_rows_[row].SignOne(key);
  }

  /// out[i] = BucketOf(row, keys[i]) for i < n, reduced by `width`: this
  /// map's width_div() or a copy of it.
  void BucketBlock(uint64_t row, const uint64_t* keys, std::size_t n,
                   const FastDiv64& width, uint64_t* out) const {
    bucket_rows_[row].BucketBlock(keys, n, width, out);
  }
  /// out[i] = SignOf(row, keys[i]) for i < n; only for a signed map.
  void SignBlock(uint64_t row, const uint64_t* keys, std::size_t n,
                 int64_t* out) const {
    sign_rows_[row].SignBlock(keys, n, out);
  }

  /// Calls emit(i, bucket, sign) for i < n <= kBlock with keys[i]'s bucket
  /// and sign in `row`; the sign is +1 in an unsigned map.
  template <typename Emit>
  void ForEachCell(uint64_t row, const uint64_t* keys, std::size_t n,
                   Emit&& emit) const {
    SKETCH_DCHECK(n <= kBlock);
    uint64_t buckets[kBlock];
    BucketBlock(row, keys, n, width_div_, buckets);
    if (!is_signed()) {
      for (std::size_t i = 0; i < n; ++i) emit(i, buckets[i], int64_t{1});
      return;
    }
    int64_t signs[kBlock];
    SignBlock(row, keys, n, signs);
    for (std::size_t i = 0; i < n; ++i) emit(i, buckets[i], signs[i]);
  }

  /// Calls emit(row, p, bucket, sign) for every p < count, hashing key
  /// key_of(p), and every row. Positions go in blocks of kBlock; within a
  /// block rows go outer and positions in increasing order, so each cell
  /// meets its positions in increasing order.
  template <typename KeyOf, typename Emit>
  void ForEachCellOf(uint64_t count, KeyOf&& key_of, Emit&& emit) const {
    uint64_t keys[kBlock];
    for (uint64_t start = 0; start < count; start += kBlock) {
      const std::size_t n = std::min<uint64_t>(kBlock, count - start);
      for (std::size_t i = 0; i < n; ++i) keys[i] = key_of(start + i);
      for (uint64_t j = 0; j < depth(); ++j) {
        ForEachCell(j, keys, n,
                    [&](std::size_t i, uint64_t bucket, int64_t sign) {
                      emit(j, start + i, bucket, sign);
                    });
      }
    }
  }

  /// y = scale * S x for the map S, as a row-major depth x width vector.
  /// Zero coordinates of x are skipped; each cell sums its coordinates in
  /// increasing order.
  std::vector<double> Apply(std::span<const double> x,
                            double scale = 1.0) const;
  /// The same for a sparse x given as `entries` with `.index` and `.value`
  /// fields; each cell sums its entries in the order given.
  template <typename Entries>
  std::vector<double> ApplySparse(const Entries& entries,
                                  double scale = 1.0) const {
    std::vector<double> y(width() * depth(), 0.0);
    ForEachCellOf(
        entries.size(), [&](uint64_t p) { return entries[p].index; },
        [&](uint64_t j, uint64_t p, uint64_t bucket, int64_t sign) {
          y[j * width() + bucket] +=
              static_cast<double>(sign) * (scale * entries[p].value);
        });
    return y;
  }

  /// Heap bytes owned by the hashers.
  uint64_t DynamicMemoryBytes() const;

 private:
  FastDiv64 width_div_;                   // divide-free `% width`; the
                                          // block kernels mask pow2 widths
  std::vector<BlockHasher> bucket_rows_;  // one 2-wise bucket hash per row
  std::vector<BlockHasher> sign_rows_;    // one sign hash per row, or none
};

}  // namespace sketch

#endif  // SKETCH_KERNELS_HASHED_ROWS_H_
