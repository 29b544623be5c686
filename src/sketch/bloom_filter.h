#ifndef SKETCH_SKETCH_BLOOM_FILTER_H_
#define SKETCH_SKETCH_BLOOM_FILTER_H_

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

/// Bloom filter [FCAB98, BM04]: `num_bits` bits, `num_hashes` hash probes
/// per key. The membership analogue of the §1 hashing process — instead of
/// counting, each key sets its hashed positions; a key "may be present"
/// iff all its positions are set.
///
/// False-positive rate after n inserts: approximately
/// (1 - e^{-kn/m})^k, minimized at k = (m/n) ln 2 hash functions.
class BloomFilter {
 public:
  /// In `WidthMode::kPow2` the requested bit count is rounded up to the
  /// next power of two (num_bits() reports the rounded value; the FPR
  /// formulas already use it). Any power-of-two bit count, in either
  /// mode, reduces probes with a mask on the hot loop.
  BloomFilter(uint64_t num_bits, int num_hashes, uint64_t seed,
              WidthMode mode = WidthMode::kDivision);

  /// Sizes for an expected `expected_keys` insertions at the target
  /// false-positive rate, with the optimal hash count.
  static BloomFilter FromFalsePositiveRate(uint64_t expected_keys,
                                           double target_fpr, uint64_t seed);

  /// Inserts a key.
  void Insert(uint64_t key);

  /// Batched entry point: inserts `update.item` for every update in the
  /// block (membership is delta-agnostic — a Bloom filter only records
  /// presence). Lets the sharded ingestion engine (`src/parallel`) drive
  /// Bloom filters through the same ApplyBatch interface as the counting
  /// sketches.
  void ApplyBatch(UpdateSpan updates);

  /// Returns false if the key was definitely never inserted; true means
  /// "possibly present" (false positives at the configured rate).
  bool MayContain(uint64_t key) const;

  /// Merges a filter with identical geometry and seed (bitwise OR).
  void Merge(const BloomFilter& other);

  /// Theoretical false-positive rate after `inserted_keys` distinct
  /// insertions.
  double TheoreticalFpr(uint64_t inserted_keys) const;

  /// Actual bit-array size (already rounded in kPow2 mode).
  uint64_t num_bits() const { return num_bits_; }
  int num_hashes() const { return static_cast<int>(probes_.size()); }
  uint64_t seed() const { return seed_; }
  WidthMode width_mode() const { return width_mode_; }

  /// Fraction of bits currently set (diagnostic).
  double FillRatio() const;

  /// Appends geometry, seed, and the bit array to `out` as a portable
  /// little-endian blob. Serialize() returns the same bytes in a fresh
  /// buffer.
  void AppendSerialized(std::vector<uint8_t>* out) const;
  std::vector<uint8_t> Serialize() const;

  /// Reconstructs a filter from Serialize() output. Malformed or
  /// untrusted bytes yield std::nullopt and a reason in *error (if
  /// non-null); nothing is allocated before the buffer's size matches its
  /// geometry.
  static std::optional<BloomFilter> TryDeserialize(
      std::span<const uint8_t> bytes, std::string* error);

  /// Resident memory of this filter: the object plus every owned heap
  /// allocation (bit array, probe hashers).
  uint64_t MemoryFootprintBytes() const;

  /// Structured self-description (see CountMinSketch::Introspect).
  StatsSnapshot Introspect() const;

  /// Human-readable Introspect() dump.
  std::string DebugString() const { return Introspect().DebugString(); }

 private:
  uint64_t num_bits_;
  uint64_t seed_;
  WidthMode width_mode_;
  FastDiv64 bits_div_;               // divide-free `% num_bits_`;
                                     // BucketBlock masks at pow2 counts
  std::vector<BlockHasher> probes_;  // one 2-wise hash per probe
  std::vector<uint64_t> bits_;       // packed, 64 bits per word
  SketchOpCounters ops_;  // lifetime insert/merge counts
};

}  // namespace sketch

#endif  // SKETCH_SKETCH_BLOOM_FILTER_H_
