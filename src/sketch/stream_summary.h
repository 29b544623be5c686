#ifndef SKETCH_SKETCH_STREAM_SUMMARY_H_
#define SKETCH_SKETCH_STREAM_SUMMARY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sketch/ams_sketch.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "stream/update.h"
#include "telemetry/stats.h"

namespace sketch {

/// One-stop, single-pass stream analytics over the sketch toolkit — the
/// "staple of data stream computing" (§1) packaged as a product surface.
///
/// Internally maintains a dyadic Count-Min (point/range/quantile/heavy-
/// hitter queries), a Count-Sketch (unbiased point estimates used to
/// verify heavy-hitter candidates, cutting false positives), and an AMS
/// sketch (F2 / self-join size). All three are linear, so summaries with
/// equal configuration merge losslessly across shards.
class StreamSummary {
 public:
  struct Options {
    int log_universe = 20;    ///< items live in [0, 2^log_universe)
    uint64_t width = 2048;    ///< per-level Count-Min width
    uint64_t depth = 4;       ///< rows per sketch
    uint64_t verify_width = 8192;  ///< Count-Sketch verification width
    uint64_t seed = 1;
  };

  explicit StreamSummary(const Options& options);

  /// Applies one update (any delta; strict-turnstile for quantile/heavy-
  /// hitter semantics).
  void Update(const StreamUpdate& update);

  /// Applies a batch.
  void UpdateAll(const std::vector<StreamUpdate>& updates);

  /// Batched entry point: applies a contiguous block of updates (the unit
  /// of work for the sharded ingestion engine in `src/parallel`).
  void ApplyBatch(UpdateSpan updates);

  /// Total stream mass (exact).
  int64_t TotalCount() const { return dyadic_.TotalCount(); }

  /// Point estimate (Count-Min upper bound cross-checked against the
  /// unbiased Count-Sketch estimate: returns the smaller magnitude).
  int64_t EstimateCount(uint64_t item) const;

  /// Items with estimated frequency >= phi * TotalCount(), verified by
  /// the Count-Sketch to suppress Count-Min false positives. Sorted.
  std::vector<uint64_t> HeavyHitters(double phi) const;

  /// Approximate q-quantile of the item distribution.
  uint64_t Quantile(double q) const { return dyadic_.Quantile(q); }

  /// Estimated mass in [lo, hi] (inclusive); never underestimates.
  int64_t RangeCount(uint64_t lo, uint64_t hi) const {
    return dyadic_.RangeSum(lo, hi);
  }

  /// Estimated second frequency moment F2 = sum_i count(i)^2 (self-join
  /// size).
  double EstimateF2() const { return ams_.EstimateF2(); }

  /// Merges a summary with identical Options (all parts are linear).
  void Merge(const StreamSummary& other);

  /// Total memory footprint in counters.
  uint64_t SizeInCounters() const;

  /// Appends the Options plus every component sketch (dyadic Count-Min,
  /// Count-Sketch verifier, AMS) to `out` as a portable little-endian
  /// blob. Serialize() returns the same bytes in a fresh buffer.
  void AppendSerialized(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;

  /// The exact byte length of Serialize(), from the layout.
  uint64_t SerializedSizeBytes() const;

  /// Reconstructs a summary from Serialize() output, or returns
  /// std::nullopt with a reason in *error (if non-null). Each component
  /// blob must carry exactly the geometry and derived seed that
  /// construction from the serialized Options would give it; that is
  /// checked before any component is built.
  static std::optional<StreamSummary> TryDeserialize(
      std::span<const uint8_t> bytes, std::string* error);

  /// Resident memory: the object plus each component sketch's footprint.
  uint64_t MemoryFootprintBytes() const;

  /// Structured self-description; the dyadic, verifier, and AMS components
  /// appear as children (see CountMinSketch::Introspect).
  StatsSnapshot Introspect() const;

  /// Human-readable Introspect() dump.
  std::string DebugString() const { return Introspect().DebugString(); }

  const Options& options() const { return options_; }

 private:
  // TryDeserialize() assembles a summary from its decoded components.
  StreamSummary(const Options& options, DyadicCountMin dyadic,
                CountSketch verifier, AmsSketch ams);

  Options options_;
  DyadicCountMin dyadic_;
  CountSketch verifier_;
  AmsSketch ams_;
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_STREAM_SUMMARY_H_
