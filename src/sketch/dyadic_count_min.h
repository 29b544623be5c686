#ifndef SKETCH_SKETCH_DYADIC_COUNT_MIN_H_
#define SKETCH_SKETCH_DYADIC_COUNT_MIN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sketch/count_min.h"
#include "stream/update.h"
#include "telemetry/stats.h"

namespace sketch {

/// Hierarchical (dyadic) Count-Min [CM03b, CM04]: one Count-Min sketch per
/// level of a binary decomposition of the universe [0, 2^log_universe).
/// Level l sketches the frequencies of the 2^l dyadic intervals of size
/// 2^(log_universe - l).
///
/// This realizes the survey's §1 recipe for actually *identifying* the
/// frequent elements (not just estimating a given item): descend from the
/// root, expanding only children whose estimated mass clears the
/// threshold — "frequent elements are mapped to heavy buckets" at every
/// scale, so the descent touches O(#heavy · log n) nodes instead of
/// scanning the universe.
///
/// Also supports range queries (sums over O(log n) dyadic pieces) and
/// approximate quantiles (binary search on prefix sums).
class DyadicCountMin {
 public:
  /// \param log_universe  universe is [0, 2^log_universe); must be <= 40.
  /// \param width, depth  geometry of the per-level Count-Min sketches.
  DyadicCountMin(int log_universe, uint64_t width, uint64_t depth,
                 uint64_t seed);

  /// Applies an update to every level.
  void Update(const StreamUpdate& update);

  /// Applies every update in `updates`.
  void UpdateAll(const std::vector<StreamUpdate>& updates);

  /// Batched entry point: applies a contiguous block of updates (the unit
  /// of work for the sharded ingestion engine in `src/parallel`).
  void ApplyBatch(UpdateSpan updates);

  /// Point estimate at the leaf level (same guarantee as CountMinSketch).
  int64_t Estimate(uint64_t item) const;

  /// All items whose estimated frequency is >= threshold, found by
  /// hierarchical descent. Output is sorted. Because Count-Min never
  /// underestimates, recall is 1 w.h.p.; false positives are possible.
  std::vector<uint64_t> HeavyHitters(int64_t threshold) const;

  /// Estimated sum of frequencies over [lo, hi] (inclusive).
  int64_t RangeSum(uint64_t lo, uint64_t hi) const;

  /// Approximate q-quantile (q in [0, 1]) of the item distribution:
  /// the smallest item x with estimated rank >= q * total.
  uint64_t Quantile(double q) const;

  /// Merges a dyadic sketch with identical geometry and seed (every level
  /// is a linear Count-Min sketch).
  void Merge(const DyadicCountMin& other);

  /// Total stream mass (exact; maintained as a counter).
  int64_t TotalCount() const { return total_; }

  int log_universe() const { return log_universe_; }

  /// Appends the level structure and every per-level Count-Min blob to
  /// `out` as a portable little-endian blob (all levels share geometry, so
  /// the layout is fixed once the header is read). Serialize() returns the
  /// same bytes in a fresh buffer.
  void AppendSerialized(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;

  /// Reconstructs a dyadic sketch from Serialize() output, or returns
  /// std::nullopt with a reason in *error (if non-null). Every level must
  /// carry the header's geometry; when `seed` is given (a StreamSummary
  /// restoring its component), each level must also carry the seed the
  /// seeding constructor derives from it. All of that is checked before
  /// any level is built.
  static std::optional<DyadicCountMin> TryDeserialize(
      std::span<const uint8_t> bytes, std::string* error,
      std::optional<uint64_t> seed = std::nullopt);

  /// Space in counters across all levels.
  uint64_t SizeInCounters() const;

  /// Resident memory: the object plus every per-level sketch's footprint.
  uint64_t MemoryFootprintBytes() const;

  /// Structured self-description; per-level CountMin snapshots appear as
  /// children (see CountMinSketch::Introspect).
  StatsSnapshot Introspect() const;

  /// Human-readable Introspect() dump.
  std::string DebugString() const { return Introspect().DebugString(); }

 private:
  // TryDeserialize() rebuilds the levels directly from their serialized
  // blobs (each carries its own derived seed), so it starts from an empty
  // shell instead of the seeding constructor.
  DyadicCountMin() = default;

  int log_universe_ = 0;
  int64_t total_ = 0;
  std::vector<CountMinSketch> levels_;  // levels_[l] sketches level l+1
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_DYADIC_COUNT_MIN_H_
