#ifndef SKETCH_SKETCH_COUNT_SKETCH_H_
#define SKETCH_SKETCH_COUNT_SKETCH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "sketch/counter_table.h"
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
///
/// The table, its bucket and sign hashers, batched updates, merging,
/// serialization and introspection are the signed `CounterTable`, the map
/// Count-Min uses plus a 2-wise sign per row; this class adds the median
/// estimators and F2.
class CountSketch {
 public:
  /// In `WidthMode::kPow2` the requested width is rounded up to the next
  /// power of two (width() reports the rounded value; the L2 bound must be
  /// computed from it). Any power-of-two width, in either mode, reduces
  /// buckets with a mask on the hot loop.
  CountSketch(uint64_t width, uint64_t depth, uint64_t seed,
              WidthMode mode = WidthMode::kDivision);

  /// Sizes from the (eps, delta) L2 guarantee: width = ceil(3/eps^2),
  /// depth = ceil(ln(1/delta)) rounded up to odd (median-friendly).
  static CountSketch FromErrorBounds(double eps, double delta, uint64_t seed);

  /// Applies an update (any delta; linear sketch).
  void Update(const StreamUpdate& update) { table_.Update(update); }

  /// Applies every update in `updates`.
  void UpdateAll(const std::vector<StreamUpdate>& updates) {
    ApplyBatch(updates);
  }

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

  /// Estimates F2 = ||x||_2^2 from the counters: per row the sum of
  /// squared counters is an unbiased F2 estimator; the upper median over
  /// rows concentrates. Scales the eps * ||x||_2 error bound.
  double EstimateF2() const;

  /// Actual table width (already rounded in kPow2 mode).
  uint64_t width() const { return table_.width(); }
  uint64_t depth() const { return table_.depth(); }
  uint64_t seed() const { return table_.seed(); }
  WidthMode width_mode() const { return table_.width_mode(); }
  uint64_t SizeInCounters() const { return table_.SizeInCounters(); }

  /// Bucket / sign of an item in a row; exposed for the measurement-matrix
  /// view used by `src/cs` and `src/dimred`.
  uint64_t BucketOf(uint64_t row, uint64_t item) const {
    return table_.BucketOf(row, item);
  }
  int SignOf(uint64_t row, uint64_t item) const {
    return static_cast<int>(table_.SignOf(row, item));
  }

  int64_t CounterAt(uint64_t row, uint64_t bucket) const {
    return table_.CounterAt(row, bucket);
  }

  /// Appends geometry, seed, and counters to `out` as a portable
  /// little-endian blob (hash functions are rebuilt from the seed on
  /// load). Serialize() returns the same bytes in a fresh buffer.
  void AppendSerialized(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const { return SerializedBytes(*this); }

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
  CounterTable table_;
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_COUNT_SKETCH_H_
