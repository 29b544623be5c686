#ifndef SKETCH_SKETCH_COUNT_MIN_H_
#define SKETCH_SKETCH_COUNT_MIN_H_

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

/// Count-Min sketch [CM04]: `depth` rows of `width` counters; each row j
/// has a pairwise-independent hash h_j, and an update (a, Δ) adds Δ to
/// counter (j, h_j(a)) in every row. This is exactly the "hashing into an
/// array of counters" process of §1 of the survey, repeated `depth` times.
///
/// Guarantees (strict turnstile, all counts nonnegative):
///   Estimate(a) >= true count, and
///   Estimate(a) <= true count + eps * ||x||_1 with prob >= 1 - delta,
/// when width = ceil(e / eps) and depth = ceil(ln(1 / delta)).
///
/// The sketch is a *linear* function of the frequency vector, so it
/// supports deletions and merging, and doubles as the measurement map in
/// the compressed-sensing connection [CM06] (see `src/cs`).
class CountMinSketch {
 public:
  /// Constructs with explicit geometry. Hash functions for the rows are
  /// derived deterministically from `seed`. In `WidthMode::kPow2` the
  /// requested width is rounded up to the next power of two (width()
  /// reports the rounded value; error bounds must be computed from it).
  /// Any power-of-two width, in either mode, reduces buckets with a mask
  /// on the hot loop — see width_mode.h.
  CountMinSketch(uint64_t width, uint64_t depth, uint64_t seed,
                 WidthMode mode = WidthMode::kDivision);

  /// Sizes the sketch from the (eps, delta) guarantee above.
  static CountMinSketch FromErrorBounds(double eps, double delta,
                                        uint64_t seed);

  /// Applies an update (works for any delta; linear sketch).
  void Update(const StreamUpdate& update);

  /// Applies every update in `updates`.
  void UpdateAll(const std::vector<StreamUpdate>& updates);

  /// Batched entry point: applies a contiguous block of updates.
  /// Equivalent to Update() on each element — this is the unit of work the
  /// sharded ingestion engine (`src/parallel`) hands to each worker.
  void ApplyBatch(UpdateSpan updates);

  /// Conservative update [EV02]: increments only the minimal counters so
  /// that the estimate of `item` rises to (old estimate + delta). Strictly
  /// tightens over-estimation, but is only sound for insert-only streams
  /// (delta > 0) and forfeits linearity (no deletions, no merging).
  void UpdateConservative(uint64_t item, int64_t delta);

  /// Point query: min over rows of the hashed counter. Never
  /// underestimates in the strict turnstile model.
  int64_t Estimate(uint64_t item) const;

  /// Batched point query: fills out[i] = Estimate(items[i]) for all `n`
  /// items, bit-identically, but computes each row's buckets with the
  /// same BlockHasher batch kernels ApplyBatch uses, so the query side of
  /// the read path rides the SIMD tier too.
  void EstimateBatch(const uint64_t* items, std::size_t n,
                     int64_t* out) const;

  /// Merges another sketch built with the same geometry and seed
  /// (counter-wise sum); valid because the sketch is linear.
  void Merge(const CountMinSketch& other);

  /// Estimates the inner product <x, y> of the two sketched frequency
  /// vectors (for relations, the equi-join size |R ⋈ S|, the application
  /// [CM04] highlights): per row, sum of counter products; min over rows.
  /// Never underestimates for nonnegative frequency vectors, and is
  /// within eps*||x||_1*||y||_1 of the truth w.h.p. Requires identical
  /// geometry and seed.
  int64_t EstimateInnerProduct(const CountMinSketch& other) const;

  /// Actual table width (already rounded in kPow2 mode).
  uint64_t width() const { return width_; }
  uint64_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }
  WidthMode width_mode() const { return width_mode_; }

  /// Total number of counters (the sketch's space cost).
  uint64_t SizeInCounters() const { return width_ * depth_; }

  /// Bucket index of `item` in row `row` — exposed so the compressed-
  /// sensing layer can reconstruct the measurement matrix this sketch
  /// implements.
  uint64_t BucketOf(uint64_t row, uint64_t item) const {
    return rows_[row].BucketOne(item, width_div_);
  }

  /// Raw counter (row-major); exposed for tests and recovery algorithms.
  int64_t CounterAt(uint64_t row, uint64_t bucket) const {
    return counters_[row * width_ + bucket];
  }

  /// Appends geometry, seed, and counters to `out` as a portable
  /// little-endian blob (hash functions are rebuilt from the seed on
  /// load). Serialize() returns the same bytes in a fresh buffer.
  void AppendSerialized(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;

  /// Reconstructs a sketch from Serialize() output. Malformed or
  /// untrusted bytes yield std::nullopt and a reason in *error (if
  /// non-null); nothing is allocated before the buffer's size matches its
  /// geometry.
  static std::optional<CountMinSketch> TryDeserialize(
      std::span<const uint8_t> bytes, std::string* error);

  /// Resident memory of this sketch: the object plus every owned heap
  /// allocation (counter table, hashers, scratch).
  uint64_t MemoryFootprintBytes() const;

  /// Structured self-description: geometry, memory, bucket-occupancy
  /// histogram, balls-in-bins distinct-key/collision estimates, and
  /// lifetime operation counters. Read-only.
  StatsSnapshot Introspect() const;

  /// Human-readable Introspect() dump.
  std::string DebugString() const { return Introspect().DebugString(); }

 private:
  uint64_t width_;
  uint64_t depth_;
  uint64_t seed_;
  WidthMode width_mode_;
  FastDiv64 width_div_;             // divide-free `% width_`; BucketBlock
                                    // masks with it at pow2 widths
  std::vector<BlockHasher> rows_;   // one 2-wise hash per row, batched form
  std::vector<int64_t> counters_;   // row-major depth x width
  std::vector<uint64_t> bucket_scratch_;  // per-row buckets of one item
                                          // (UpdateConservative)
  SketchOpCounters ops_;            // lifetime update/merge counts
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_COUNT_MIN_H_
