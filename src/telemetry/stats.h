#ifndef SKETCH_TELEMETRY_STATS_H_
#define SKETCH_TELEMETRY_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Sketch introspection: `StatsSnapshot`, the structured self-description
/// every sketch returns from `Introspect()`, plus the small helpers the
/// implementations share (magnitude histograms, balls-in-bins occupancy
/// estimates, per-instance operation counters).
///
/// The point of the snapshot is to turn the survey's *paper* quantities
/// into *live* signals: bucket occupancy and collision estimates are the
/// denominators in Count-Min/Count-Sketch error bounds, fill ratio drives
/// the Bloom false-positive rate, and memory footprint is the space side
/// of every space/accuracy trade-off. Snapshots are computed on demand by
/// reading the sketch's state — no background work, no effect on the
/// sketch.

namespace sketch {

/// Structured introspection report. Composite sketches (DyadicCountMin,
/// StreamSummary, ShardedSketch) attach one child snapshot per component.
struct StatsSnapshot {
  struct Field {
    std::string name;
    double value = 0.0;
  };

  std::string type;           ///< concrete sketch type name
  uint64_t memory_bytes = 0;  ///< MemoryFootprintBytes() of the sketch
  uint64_t cells = 0;         ///< addressable table cells (counters / bits)

  /// Named scalar facts: geometry, derived occupancy/collision estimates,
  /// and lifetime operation counts. Order is the order of insertion.
  std::vector<Field> fields;

  /// Magnitude histogram of the cells: entry 0 counts zero cells, entry
  /// b >= 1 counts cells whose |value| has bit width b. Empty when the
  /// notion does not apply.
  std::vector<uint64_t> occupancy_log2;

  std::vector<StatsSnapshot> children;

  void AddField(std::string name, double value);

  /// Value of the named field, or `fallback` if absent.
  double FieldOr(std::string_view name, double fallback) const;

  /// Human-readable multi-line dump (children indented).
  std::string DebugString() const;

  /// Machine-readable JSON:
  /// {"type": t, "memory_bytes": m, "cells": c, "fields": {...},
  ///  "occupancy_log2": [...], "children": [...]}.
  std::string ToJson() const;
};

namespace telemetry {

/// Magnitude histogram of `n` signed counters in the StatsSnapshot
/// encoding: out[0] = #zeros, out[b] = #values with bit_width(|v|) == b.
/// Trailing zero buckets are trimmed.
std::vector<uint64_t> MagnitudeHistogram(const int64_t* values, std::size_t n);

/// Fraction of cells with a nonzero value, given a MagnitudeHistogram.
double OccupiedFraction(const std::vector<uint64_t>& histogram,
                        uint64_t total_cells);

/// Balls-in-bins inversion: the number of distinct keys that, hashed
/// uniformly into `width` buckets, would leave the observed fraction of
/// buckets occupied in expectation (-width * ln(1 - fraction)). This is
/// how a row's occupancy becomes a live estimate of its distinct-key
/// load without any extra bookkeeping.
double EstimateDistinctKeys(double occupied_fraction, double width);

/// Estimated probability that a key shares its bucket with at least one
/// other key, given the estimated distinct-key load of a row:
/// 1 - (1 - 1/width)^(distinct - 1). This is the collision rate behind
/// the Count-Sketch concentration bounds — the quantity [Minton-Price'12]
/// analyzes — surfaced as a runtime signal.
double EstimateCollisionRate(double distinct_keys, double width);

}  // namespace telemetry

/// Per-instance lifetime operation counters for StatsSnapshot. The counts
/// are plain (non-atomic) members — sketches are single-writer by
/// contract (see ShardedSketch), so bumping them is one add.
class SketchOpCounters {
 public:
  void AddUpdates(uint64_t n) { updates_ += n; }
  void AddBatch(uint64_t n) {
    ++batches_;
    updates_ += n;
  }
  /// Folds `other` in on Merge: absorbed updates travel with the data.
  void AddMerge(const SketchOpCounters& other) {
    updates_ += other.updates_;
    batches_ += other.batches_;
    merges_ += other.merges_ + 1;
  }
  uint64_t updates() const { return updates_; }
  uint64_t batches() const { return batches_; }
  uint64_t merges() const { return merges_; }

 private:
  uint64_t updates_ = 0;  ///< items applied (including via batches/merges)
  uint64_t batches_ = 0;  ///< ApplyBatch calls
  uint64_t merges_ = 0;   ///< Merge calls (transitively)
};

}  // namespace sketch

#endif  // SKETCH_TELEMETRY_STATS_H_
