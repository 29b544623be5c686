#include "sketch/ams_sketch.h"

#include <algorithm>
#include <cstddef>

#include "common/byte_buffer.h"
#include "common/check.h"
#include "common/prng.h"
#include "common/wrapping.h"
#include "sketch/sum_of_squares.h"
#include "sketch/table_header.h"
#include "telemetry/telemetry.h"

namespace sketch {

namespace {
// No pow2 mode, so no v2 magic.
constexpr TableFormat kTableFormat = {
    0x534b414d53303031ULL,  // "SKAMS001"
    0x534b414d53303031ULL,  // "SKAMS001"
    "AmsSketch", "width"};
}  // namespace

AmsSketch::AmsSketch(uint64_t width, uint64_t depth, uint64_t seed)
    : width_(width), depth_(depth), seed_(seed), width_div_(width) {
  SKETCH_CHECK(width >= 1);
  SKETCH_CHECK(depth >= 1);
  SKETCH_CHECK_MSG(width <= UINT64_MAX / depth,
                   "counter table width * depth overflows");
  bucket_rows_.reserve(depth);
  sign_rows_.reserve(depth);
  for (uint64_t j = 0; j < depth; ++j) {
    bucket_rows_.emplace_back(KWiseHash(2, SplitMix64Once(seed + 31 * j)));
    sign_rows_.emplace_back(KWiseHash(4, SplitMix64Once(~seed + 37 * j)));
  }
  counters_.assign(width * depth, 0);
}

void AmsSketch::Update(const StreamUpdate& update) {
  ops_.AddUpdates(1);
  for (uint64_t j = 0; j < depth_; ++j) {
    const uint64_t b = bucket_rows_[j].BucketOne(update.item, width_div_);
    counters_[j * width_ + b] =
        WrapAdd(counters_[j * width_ + b],
                WrapMul(sign_rows_[j].SignOne(update.item), update.delta));
  }
}

void AmsSketch::UpdateAll(const std::vector<StreamUpdate>& updates) {
  ApplyBatch(updates);
}

void AmsSketch::ApplyBatch(UpdateSpan updates) {
  // Kernelized bulk path (see CountMinSketch::ApplyBatch); the 4-wise sign
  // hash goes through the unrolled k=4 Horner kernel. Bit-identical to
  // per-item Update() because addition commutes.
  SKETCH_TRACE_SPAN("ams.apply_batch");
  SKETCH_COUNTER_ADD("sketch.ams.batched_updates", updates.size());
  SKETCH_HISTOGRAM_RECORD("sketch.batch_size", updates.size());
  ops_.AddBatch(updates.size());
  constexpr std::size_t kBlock = 256;
  constexpr std::size_t kPrefetchAhead = 8;
  uint64_t keys[kBlock];
  uint64_t buckets[kBlock];
  const FastDiv64 div = width_div_;  // local copy keeps the magic constant
                                     // register-resident across the row loop
  int64_t signs[kBlock];
  const std::size_t total = updates.size();
  for (std::size_t start = 0; start < total; start += kBlock) {
    const std::size_t n = std::min(kBlock, total - start);
    const StreamUpdate* block = updates.data() + start;
    for (std::size_t i = 0; i < n; ++i) keys[i] = block[i].item;
    for (uint64_t j = 0; j < depth_; ++j) {
      bucket_rows_[j].BucketBlock(keys, n, div, buckets);
      sign_rows_[j].SignBlock(keys, n, signs);
      int64_t* row = counters_.data() + j * width_;
      for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
          __builtin_prefetch(row + buckets[i + kPrefetchAhead], 1, 1);
        }
        row[buckets[i]] =
            WrapAdd(row[buckets[i]], WrapMul(signs[i], block[i].delta));
      }
    }
  }
}

double AmsSketch::EstimateF2() const {
  return MedianRowSumOfSquares(counters_, width_);
}

void AmsSketch::Merge(const AmsSketch& other) {
  SKETCH_CHECK_MSG(width_ == other.width_ && depth_ == other.depth_ &&
                       seed_ == other.seed_,
                   "merge requires identical geometry and seed");
  SKETCH_COUNTER_INC("sketch.ams.merges");
  ops_.AddMerge(other.ops_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = WrapAdd(counters_[i], other.counters_[i]);
  }
}

uint64_t AmsSketch::MemoryFootprintBytes() const {
  uint64_t bytes = sizeof(*this) + counters_.capacity() * sizeof(int64_t) +
                   bucket_rows_.capacity() * sizeof(BlockHasher) +
                   sign_rows_.capacity() * sizeof(BlockHasher);
  for (const BlockHasher& row : bucket_rows_) bytes += row.DynamicMemoryBytes();
  for (const BlockHasher& row : sign_rows_) bytes += row.DynamicMemoryBytes();
  return bytes;
}

StatsSnapshot AmsSketch::Introspect() const {
  StatsSnapshot snapshot;
  snapshot.type = "AmsSketch";
  snapshot.memory_bytes = MemoryFootprintBytes();
  snapshot.cells = counters_.size();
  snapshot.AddField("width", static_cast<double>(width_));
  snapshot.AddField("depth", static_cast<double>(depth_));
  snapshot.AddField("seed", static_cast<double>(seed_));
  snapshot.occupancy_log2 =
      telemetry::MagnitudeHistogram(counters_.data(), counters_.size());
  // Like Count-Sketch, the random signs can cancel a bucket exactly to
  // zero, so occupancy slightly under-counts load; the F2 variance bound
  // depends on bucket collisions, which this tracks directly.
  const double occupied = telemetry::OccupiedFraction(
      snapshot.occupancy_log2, counters_.size());
  snapshot.AddField("occupied_fraction", occupied);
  const double distinct = telemetry::EstimateDistinctKeys(
      occupied, static_cast<double>(width_));
  snapshot.AddField("estimated_distinct_keys", distinct);
  snapshot.AddField(
      "estimated_collision_rate",
      telemetry::EstimateCollisionRate(distinct,
                                       static_cast<double>(width_)));
  snapshot.AddField("updates", static_cast<double>(ops_.updates()));
  snapshot.AddField("batches", static_cast<double>(ops_.batches()));
  snapshot.AddField("merges", static_cast<double>(ops_.merges()));
  return snapshot;
}

void AmsSketch::AppendSerialized(std::vector<uint8_t>* out) const {
  AppendTable(kTableFormat, {width_, depth_, seed_}, counters_, out);
}

std::vector<uint8_t> AmsSketch::Serialize() const {
  return SerializedBytes(*this);
}

std::optional<AmsSketch> AmsSketch::TryDeserialize(
    std::span<const uint8_t> bytes, std::string* error) {
  ByteReader reader(bytes);
  const std::optional<TableHeader> header = ReadTableHeader(
      kTableFormat,
      [](uint64_t width, uint64_t depth) -> const char* {
        return width < 1 || depth < 1 ? "invalid AmsSketch geometry" : nullptr;
      },
      &reader, error);
  if (!header) return std::nullopt;
  uint64_t cells = 0;
  if (!CheckedMulU64(header->size, header->depth, &cells)) {
    return FailDecode(error, "AmsSketch geometry overflows");
  }
  if (!CheckSerializedSize(bytes, reader.words_read(), cells)) {
    return FailDecode(error, "AmsSketch buffer size does not match geometry");
  }
  AmsSketch sketch(header->size, header->depth, header->seed);
  reader.ReadWords(sketch.counters_);
  return sketch;
}

}  // namespace sketch
