#ifndef SKETCH_SKETCH_COUNT_SKETCH_H_
#define SKETCH_SKETCH_COUNT_SKETCH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hash/kwise_hash.h"
#include "kernels/block_hasher.h"
#include "kernels/fast_div.h"
#include "sketch/width_mode.h"
#include "stream/update.h"
#include "telemetry/stats.h"

namespace sketch {

/// Count-Sketch [CCF02]: like Count-Min but each update is multiplied by a
/// pairwise-independent random sign g_j(a) ∈ {±1} before being added to
/// counter (j, h_j(a)), and the point query takes the *median* over rows of
/// g_j(a) * c[j][h_j(a)].
///
/// The random signs make each row's estimate *unbiased* (colliding items
/// cancel in expectation), which is the footnoted "randomly chosen
/// increments" variant of the survey's §1. Guarantee: the estimate is
/// within eps * ||x||_2 of the truth with prob >= 1 - delta when
/// width = O(1/eps^2), depth = O(log(1/delta)) — an L2 guarantee, stronger
/// than Count-Min's L1 bound on skewed data.
class CountSketch {
 public:
  /// In `WidthMode::kPow2` the requested width is rounded up to the next
  /// power of two (width() reports the rounded value; the L2 bound must be
  /// computed from it) and the hot-loop bucket reduction becomes a mask.
  CountSketch(uint64_t width, uint64_t depth, uint64_t seed,
              WidthMode mode = WidthMode::kDivision);

  /// Sizes from the (eps, delta) L2 guarantee: width = ceil(3/eps^2),
  /// depth = ceil(ln(1/delta)) rounded up to odd (median-friendly).
  static CountSketch FromErrorBounds(double eps, double delta, uint64_t seed);

  /// Applies an update (any delta; linear sketch).
  void Update(const StreamUpdate& update);

  /// Applies every update in `updates`.
  void UpdateAll(const std::vector<StreamUpdate>& updates);

  /// Batched entry point: applies a contiguous block of updates (the unit
  /// of work for the sharded ingestion engine in `src/parallel`).
  void ApplyBatch(UpdateSpan updates);

  /// Point query: median over rows of sign-corrected counters. Unbiased
  /// per row; the median gives the high-probability bound.
  int64_t Estimate(uint64_t item) const;

  /// Batched point query: fills out[i] = Estimate(items[i]) for all `n`
  /// items, bit-identically, with buckets and signs computed through the
  /// same BlockHasher batch kernels ApplyBatch uses (SIMD-dispatched).
  void EstimateBatch(const uint64_t* items, std::size_t n,
                     int64_t* out) const;

  /// Estimate from a single row (used by tests for unbiasedness and by the
  /// sparse-recovery layer).
  int64_t EstimateRow(uint64_t row, uint64_t item) const;

  /// Merges a sketch with identical geometry and seed (linear).
  void Merge(const CountSketch& other);

  /// Estimates <x, y> of the two sketched frequency vectors: per row, sum
  /// of counter products (unbiased — colliding cross terms carry random
  /// signs); median over rows. Two-sided error eps*||x||_2*||y||_2 w.h.p.
  /// Requires identical geometry and seed.
  int64_t EstimateInnerProduct(const CountSketch& other) const;

  /// Actual table width (already rounded in kPow2 mode).
  uint64_t width() const { return width_; }
  uint64_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  WidthMode width_mode() const { return width_mode_; }
  uint64_t SizeInCounters() const { return width_ * depth_; }

  /// Bucket / sign of an item in a row; exposed for the measurement-matrix
  /// view used by `src/cs` and `src/dimred`.
  uint64_t BucketOf(uint64_t row, uint64_t item) const {
    return bucket_rows_[row].BucketOne(item, width_div_);
  }
  int SignOf(uint64_t row, uint64_t item) const {
    return static_cast<int>(sign_rows_[row].SignOne(item));
  }

  int64_t CounterAt(uint64_t row, uint64_t bucket) const {
    return counters_[row * width_ + bucket];
  }

  /// Serializes geometry, seed, and counters to a portable little-endian
  /// byte buffer (hash functions are rebuilt from the seed on load).
  std::vector<uint8_t> Serialize() const;

  /// Reconstructs a sketch from Serialize() output. Malformed or
  /// untrusted bytes yield std::nullopt and a reason in *error (if
  /// non-null); nothing is allocated before the buffer's size matches its
  /// geometry.
  static std::optional<CountSketch> TryDeserialize(
      std::span<const uint8_t> bytes, std::string* error);

  /// Resident memory of this sketch: the object plus every owned heap
  /// allocation (counter table, bucket/sign hashers).
  uint64_t MemoryFootprintBytes() const;

  /// Structured self-description (see CountMinSketch::Introspect).
  StatsSnapshot Introspect() const;

  /// Human-readable Introspect() dump.
  std::string DebugString() const { return Introspect().DebugString(); }

 private:
  uint64_t width_;
  uint64_t depth_;
  uint64_t seed_;
  WidthMode width_mode_;
  uint64_t bucket_mask_;                  // width_ - 1 in kPow2 mode, else 0
  FastDiv64 width_div_;                  // divide-free `% width_`; equals
                                         // the mask for pow2 widths
  std::vector<BlockHasher> bucket_rows_;  // one 2-wise bucket hash per row
  std::vector<BlockHasher> sign_rows_;    // one 2-wise sign hash per row
  std::vector<int64_t> counters_;
  SketchOpCounters ops_;  // lifetime update/merge counts (stub when off)
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_COUNT_SKETCH_H_
