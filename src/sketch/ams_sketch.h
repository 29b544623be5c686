#ifndef SKETCH_SKETCH_AMS_SKETCH_H_
#define SKETCH_SKETCH_AMS_SKETCH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hash/kwise_hash.h"
#include "kernels/block_hasher.h"
#include "kernels/fast_div.h"
#include "stream/update.h"
#include "telemetry/stats.h"

namespace sketch {

/// AMS "tug-of-war" sketch (Alon–Matias–Szegedy) for the second frequency
/// moment F2 = ||x||_2^2, in its hashed "fast AMS" form: each row is a
/// Count-Sketch row (4-wise independent signs), and the row's F2 estimate
/// is the sum of squared counters. The median over rows concentrates.
///
/// Included because F2 estimation is the original theory ancestor of
/// Count-Sketch and the simplest instance of "sketching as dimensionality
/// reduction" (§3): a Count-Sketch row is an ℓ2-norm-preserving random
/// projection.
class AmsSketch {
 public:
  AmsSketch(uint64_t width, uint64_t depth, uint64_t seed);

  /// Applies an update (any delta; linear sketch).
  void Update(const StreamUpdate& update);

  /// Applies every update.
  void UpdateAll(const std::vector<StreamUpdate>& updates);

  /// Batched entry point: applies a contiguous block of updates (the unit
  /// of work for the sharded ingestion engine in `src/parallel`).
  void ApplyBatch(UpdateSpan updates);

  /// Median-of-rows estimate of F2 = sum_i count(i)^2.
  double EstimateF2() const;

  /// Merges a sketch with identical geometry and seed.
  void Merge(const AmsSketch& other);

  /// Appends geometry, seed, and counters to `out` as a portable
  /// little-endian blob (hash functions are rebuilt from the seed on
  /// load). Serialize() returns the same bytes in a fresh buffer.
  void AppendSerialized(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;

  /// Reconstructs a sketch from Serialize() output. Malformed or
  /// untrusted bytes yield std::nullopt and a reason in *error (if
  /// non-null); nothing is allocated before the buffer's size matches its
  /// geometry.
  static std::optional<AmsSketch> TryDeserialize(
      std::span<const uint8_t> bytes, std::string* error);

  uint64_t width() const { return width_; }
  uint64_t depth() const { return depth_; }
  uint64_t seed() const { return seed_; }

  int64_t CounterAt(uint64_t row, uint64_t bucket) const {
    return counters_[row * width_ + bucket];
  }

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
  FastDiv64 width_div_;                   // divide-free `% width_`
  std::vector<BlockHasher> bucket_rows_;  // 2-wise
  std::vector<BlockHasher> sign_rows_;    // 4-wise (needed for variance
                                          // bound); hits the unrolled k=4
                                          // kernel path
  std::vector<int64_t> counters_;
  SketchOpCounters ops_;  // lifetime update/merge counts
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_AMS_SKETCH_H_
