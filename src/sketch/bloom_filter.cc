#include "sketch/bloom_filter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "common/byte_buffer.h"
#include "common/check.h"
#include "common/prng.h"
#include "telemetry/telemetry.h"

namespace sketch {

namespace {
constexpr uint64_t kBloomMagic = 0x534b424c4f4f4d31ULL;  // "SKBLOOM1"
// v2 adds a width-mode word to the header; only written for non-default
// modes so division-mode buffers stay byte-identical to v1.
constexpr uint64_t kBloomMagicV2 = 0x534b424c4f4f4d32ULL;  // "SKBLOOM2"
}  // namespace

BloomFilter::BloomFilter(uint64_t num_bits, int num_hashes, uint64_t seed,
                         WidthMode mode)
    : num_bits_(ApplyWidthMode(mode, num_bits)),
      seed_(seed),
      width_mode_(mode),
      bit_mask_(WidthModeMask(mode, num_bits_)),
      bits_div_(num_bits_) {
  SKETCH_CHECK(num_bits >= 1);
  SKETCH_CHECK(num_hashes >= 1);
  probes_.reserve(static_cast<std::size_t>(num_hashes));
  for (int i = 0; i < num_hashes; ++i) {
    probes_.emplace_back(KWiseHash(2, SplitMix64Once(seed + 7919 * i)));
  }
  bits_.assign((num_bits_ + 63) / 64, 0);
}

BloomFilter BloomFilter::FromFalsePositiveRate(uint64_t expected_keys,
                                               double target_fpr,
                                               uint64_t seed) {
  SKETCH_CHECK(expected_keys >= 1);
  SKETCH_CHECK(target_fpr > 0.0 && target_fpr < 1.0);
  const double ln2 = std::log(2.0);
  const double bits_per_key = -std::log(target_fpr) / (ln2 * ln2);
  const auto num_bits = static_cast<uint64_t>(
      std::ceil(bits_per_key * static_cast<double>(expected_keys)));
  const int num_hashes =
      std::max(1, static_cast<int>(std::round(bits_per_key * ln2)));
  return BloomFilter(num_bits, num_hashes, seed);
}

void BloomFilter::Insert(uint64_t key) {
  ops_.AddUpdates(1);
  for (const BlockHasher& h : probes_) {
    const uint64_t bit = h.BucketOne(key, bits_div_);
    bits_[bit >> 6] |= (1ULL << (bit & 63));
  }
}

bool BloomFilter::MayContain(uint64_t key) const {
  for (const BlockHasher& h : probes_) {
    const uint64_t bit = h.BucketOne(key, bits_div_);
    if (!(bits_[bit >> 6] & (1ULL << (bit & 63)))) return false;
  }
  return true;
}

void BloomFilter::ApplyBatch(UpdateSpan updates) {
  // Kernelized bulk path: per block, each probe hash batch-computes its bit
  // positions and sets them contiguously. Bitwise OR commutes, so the bit
  // array is identical to per-item Insert() calls.
  SKETCH_TRACE_SPAN("bloom.apply_batch");
  SKETCH_COUNTER_ADD("sketch.bloom.batched_updates", updates.size());
  SKETCH_HISTOGRAM_RECORD("sketch.batch_size", updates.size());
  ops_.AddBatch(updates.size());
  constexpr std::size_t kBlock = 256;
  uint64_t keys[kBlock];
  uint64_t positions[kBlock];
  const std::size_t total = updates.size();
  uint64_t* bits = bits_.data();
  const FastDiv64 div = bits_div_;  // local copy: the bit stores below
                                    // cannot alias a stack value, so the
                                    // magic constant stays in registers
  for (std::size_t start = 0; start < total; start += kBlock) {
    const std::size_t n = std::min(kBlock, total - start);
    const StreamUpdate* block = updates.data() + start;
    for (std::size_t i = 0; i < n; ++i) keys[i] = block[i].item;
    for (const BlockHasher& h : probes_) {
      // Bit positions are staged through a scratch block (rather than
      // fusing the store into the hash loop) so the probe hash goes
      // through the dispatched SIMD bucket kernels like the counting
      // sketches' rows do; the stores stay a separate cheap sweep.
      if (width_mode_ == WidthMode::kPow2) {
        h.BucketBlockPow2(keys, n, bit_mask_, positions);
      } else {
        h.BucketBlock(keys, n, div, positions);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const uint64_t bit = positions[i];
        bits[bit >> 6] |= (1ULL << (bit & 63));
      }
    }
  }
}

void BloomFilter::Merge(const BloomFilter& other) {
  SKETCH_CHECK_MSG(num_bits_ == other.num_bits_ && seed_ == other.seed_ &&
                       probes_.size() == other.probes_.size() &&
                       width_mode_ == other.width_mode_,
                   "merge requires identical geometry and seed");
  SKETCH_COUNTER_INC("sketch.bloom.merges");
  ops_.AddMerge(other.ops_);
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
}

double BloomFilter::TheoreticalFpr(uint64_t inserted_keys) const {
  const double k = static_cast<double>(probes_.size());
  const double exponent = -k * static_cast<double>(inserted_keys) /
                          static_cast<double>(num_bits_);
  return std::pow(1.0 - std::exp(exponent), k);
}

double BloomFilter::FillRatio() const {
  uint64_t set = 0;
  for (uint64_t word : bits_) set += __builtin_popcountll(word);
  return static_cast<double>(set) / static_cast<double>(num_bits_);
}

uint64_t BloomFilter::MemoryFootprintBytes() const {
  uint64_t bytes = sizeof(*this) + bits_.capacity() * sizeof(uint64_t) +
                   probes_.capacity() * sizeof(BlockHasher);
  for (const BlockHasher& h : probes_) bytes += h.DynamicMemoryBytes();
  return bytes;
}

StatsSnapshot BloomFilter::Introspect() const {
  StatsSnapshot snapshot;
  snapshot.type = "BloomFilter";
  snapshot.memory_bytes = MemoryFootprintBytes();
  snapshot.cells = num_bits_;
  snapshot.AddField("num_bits", static_cast<double>(num_bits_));
  snapshot.AddField("num_hashes", static_cast<double>(probes_.size()));
  snapshot.AddField("seed", static_cast<double>(seed_));
  snapshot.AddField("width_mode", static_cast<double>(width_mode_));
  // Bits are 0/1, so the magnitude histogram degenerates to two buckets:
  // [0] = clear bits, [1] = set bits.
  uint64_t set = 0;
  for (uint64_t word : bits_) {
    set += static_cast<uint64_t>(__builtin_popcountll(word));
  }
  snapshot.occupancy_log2 = {num_bits_ - set, set};
  const double fill = static_cast<double>(set) /
                      static_cast<double>(num_bits_);
  snapshot.AddField("fill_ratio", fill);
  // Invert fill = 1 - (1 - 1/m)^{kn} ≈ 1 - e^{-kn/m} for n, the number of
  // distinct keys inserted; the current false-positive rate is fill^k.
  const double k = static_cast<double>(probes_.size());
  const double m = static_cast<double>(num_bits_);
  snapshot.AddField("estimated_distinct_keys",
                    fill >= 1.0 ? m / k : -(m / k) * std::log1p(-fill));
  snapshot.AddField("current_fpr", std::pow(fill, k));
  snapshot.AddField("updates", static_cast<double>(ops_.updates()));
  snapshot.AddField("batches", static_cast<double>(ops_.batches()));
  snapshot.AddField("merges", static_cast<double>(ops_.merges()));
  return snapshot;
}

std::vector<uint8_t> BloomFilter::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(48 + bits_.size() * 8);
  // Division-mode buffers keep the v1 layout byte for byte; pow2 filters
  // write the v2 magic and append the mode word to the header.
  if (width_mode_ == WidthMode::kDivision) {
    AppendU64(kBloomMagic, &out);
    AppendU64(num_bits_, &out);
    AppendU64(static_cast<uint64_t>(probes_.size()), &out);
    AppendU64(seed_, &out);
  } else {
    AppendU64(kBloomMagicV2, &out);
    AppendU64(num_bits_, &out);
    AppendU64(static_cast<uint64_t>(probes_.size()), &out);
    AppendU64(seed_, &out);
    AppendU64(static_cast<uint64_t>(width_mode_), &out);
  }
  AppendWords(bits_, &out);
  return out;
}

std::optional<BloomFilter> BloomFilter::TryDeserialize(
    std::span<const uint8_t> bytes, std::string* error) {
  ByteReader reader(bytes);
  uint64_t header[4] = {};
  if (!reader.ReadWords(header)) {
    return FailDecode(error, "truncated sketch buffer");
  }
  const auto [magic, num_bits, num_hashes, seed] = header;
  if (magic != kBloomMagic && magic != kBloomMagicV2) {
    return FailDecode(error, "not a BloomFilter buffer");
  }
  if (num_bits < 1 || num_bits > UINT64_MAX - 63) {
    return FailDecode(error, "invalid BloomFilter bit count");
  }
  if (num_hashes < 1 || num_hashes > 1024) {
    return FailDecode(error, "invalid BloomFilter hash count");
  }
  WidthMode mode = WidthMode::kDivision;
  if (magic == kBloomMagicV2) {
    uint64_t mode_word = 0;
    if (!reader.ReadU64(&mode_word)) {
      return FailDecode(error, "truncated sketch buffer");
    }
    if (mode_word != static_cast<uint64_t>(WidthMode::kPow2)) {
      return FailDecode(error, "invalid BloomFilter width mode");
    }
    if (!std::has_single_bit(num_bits)) {
      return FailDecode(error,
                        "pow2 BloomFilter bit count is not a power of two");
    }
    mode = WidthMode::kPow2;
  }
  if (!CheckSerializedSize(bytes, reader.words_read(), (num_bits + 63) / 64)) {
    return FailDecode(error, "BloomFilter buffer size does not match geometry");
  }
  BloomFilter filter(num_bits, static_cast<int>(num_hashes), seed, mode);
  reader.ReadWords(filter.bits_);
  return filter;
}

}  // namespace sketch
