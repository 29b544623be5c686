#include "sketch/count_sketch.h"

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
constexpr uint64_t kCountSketchMagic = 0x534b43534b543031ULL;  // "SKCSKT01"
// v2 adds a width-mode word to the header; only written for non-default
// modes so division-mode buffers stay byte-identical to v1.
constexpr uint64_t kCountSketchMagicV2 = 0x534b43534b543032ULL;  // "SKCSKT02"
}  // namespace

CountSketch::CountSketch(uint64_t width, uint64_t depth, uint64_t seed,
                         WidthMode mode)
    : width_(ApplyWidthMode(mode, width)),
      depth_(depth),
      seed_(seed),
      width_mode_(mode),
      bucket_mask_(WidthModeMask(mode, width_)),
      width_div_(width_) {
  SKETCH_CHECK(width >= 1);
  SKETCH_CHECK(depth >= 1);
  SKETCH_CHECK_MSG(width_ <= UINT64_MAX / depth,
                   "counter table width * depth overflows");
  bucket_rows_.reserve(depth);
  sign_rows_.reserve(depth);
  for (uint64_t j = 0; j < depth; ++j) {
    bucket_rows_.emplace_back(KWiseHash(2, SplitMix64Once(seed * 2 + j)));
    sign_rows_.emplace_back(
        KWiseHash(2, SplitMix64Once(~seed * 2 + j + 0x9e37ULL)));
  }
  counters_.assign(width_ * depth, 0);
}

CountSketch CountSketch::FromErrorBounds(double eps, double delta,
                                         uint64_t seed) {
  SKETCH_CHECK(eps > 0.0 && eps < 1.0);
  SKETCH_CHECK(delta > 0.0 && delta < 1.0);
  const auto width = static_cast<uint64_t>(std::ceil(3.0 / (eps * eps)));
  auto depth = static_cast<uint64_t>(std::ceil(std::log(1.0 / delta)));
  depth = std::max<uint64_t>(depth, 1);
  if (depth % 2 == 0) ++depth;  // odd depth keeps the median a counter value
  return CountSketch(width, depth, seed);
}

void CountSketch::Update(const StreamUpdate& update) {
  ops_.AddUpdates(1);
  for (uint64_t j = 0; j < depth_; ++j) {
    const uint64_t b = bucket_rows_[j].BucketOne(update.item, width_div_);
    counters_[j * width_ + b] +=
        sign_rows_[j].SignOne(update.item) * update.delta;
  }
}

void CountSketch::UpdateAll(const std::vector<StreamUpdate>& updates) {
  ApplyBatch(updates);
}

void CountSketch::ApplyBatch(UpdateSpan updates) {
  // Kernelized bulk path (see CountMinSketch::ApplyBatch): per block, each
  // row batch-computes its buckets and signs, then applies the signed
  // deltas contiguously. Addition commutes, so the counter table is
  // bit-identical to per-item Update() calls.
  SKETCH_TRACE_SPAN("count_sketch.apply_batch");
  SKETCH_COUNTER_ADD("sketch.count_sketch.batched_updates", updates.size());
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
      if (width_mode_ == WidthMode::kPow2) {
        bucket_rows_[j].BucketBlockPow2(keys, n, bucket_mask_, buckets);
      } else {
        bucket_rows_[j].BucketBlock(keys, n, div, buckets);
      }
      sign_rows_[j].SignBlock(keys, n, signs);
      int64_t* row = counters_.data() + j * width_;
      for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
          __builtin_prefetch(row + buckets[i + kPrefetchAhead], 1, 1);
        }
        row[buckets[i]] += signs[i] * block[i].delta;
      }
    }
  }
}

int64_t CountSketch::EstimateRow(uint64_t row, uint64_t item) const {
  const uint64_t b = bucket_rows_[row].BucketOne(item, width_div_);
  return sign_rows_[row].SignOne(item) * counters_[row * width_ + b];
}

namespace {

/// Median of `row_estimates` (destructively): the middle order statistic,
/// or for even counts the average of the two middle order statistics.
/// Order statistics depend only on the multiset, so callers may fill the
/// vector in any row order and still get a deterministic result.
int64_t MedianOfRows(std::vector<int64_t>& row_estimates) {
  const auto mid = row_estimates.begin() +
                   static_cast<std::ptrdiff_t>(row_estimates.size() / 2);
  std::nth_element(row_estimates.begin(), mid, row_estimates.end());
  if (row_estimates.size() % 2 == 1) return *mid;
  // Even depth: average the two middle order statistics.
  const int64_t upper = *mid;
  const int64_t lower = *std::max_element(row_estimates.begin(), mid);
  return (lower + upper) / 2;
}

}  // namespace

int64_t CountSketch::Estimate(uint64_t item) const {
  std::vector<int64_t> row_estimates(depth_);
  for (uint64_t j = 0; j < depth_; ++j) {
    row_estimates[j] = EstimateRow(j, item);
  }
  return MedianOfRows(row_estimates);
}

void CountSketch::EstimateBatch(const uint64_t* items, std::size_t n,
                                int64_t* out) const {
  // Query-side mirror of ApplyBatch: per block of keys, each row batch-
  // computes buckets and signs, depositing its signed counter into a
  // row-major scratch pane; the per-item median is then taken over the
  // pane's column. Identical row estimates feed the identical median, so
  // out[i] == Estimate(items[i]) exactly.
  SKETCH_TRACE_SPAN("count_sketch.estimate_batch");
  SKETCH_COUNTER_ADD("sketch.count_sketch.batched_estimates", n);
  constexpr std::size_t kBlock = 256;
  uint64_t buckets[kBlock];
  int64_t signs[kBlock];
  const FastDiv64 div = width_div_;
  std::vector<int64_t> pane(depth_ * kBlock);
  std::vector<int64_t> row_estimates(depth_);
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t block_n = std::min(kBlock, n - start);
    const uint64_t* keys = items + start;
    for (uint64_t j = 0; j < depth_; ++j) {
      if (width_mode_ == WidthMode::kPow2) {
        bucket_rows_[j].BucketBlockPow2(keys, block_n, bucket_mask_, buckets);
      } else {
        bucket_rows_[j].BucketBlock(keys, block_n, div, buckets);
      }
      sign_rows_[j].SignBlock(keys, block_n, signs);
      const int64_t* row = counters_.data() + j * width_;
      int64_t* pane_row = pane.data() + j * kBlock;
      for (std::size_t i = 0; i < block_n; ++i) {
        pane_row[i] = signs[i] * row[buckets[i]];
      }
    }
    for (std::size_t i = 0; i < block_n; ++i) {
      for (uint64_t j = 0; j < depth_; ++j) {
        row_estimates[j] = pane[j * kBlock + i];
      }
      out[start + i] = MedianOfRows(row_estimates);
    }
  }
}

int64_t CountSketch::EstimateInnerProduct(const CountSketch& other) const {
  SKETCH_CHECK_MSG(width_ == other.width_ && depth_ == other.depth_ &&
                       seed_ == other.seed_ &&
                       width_mode_ == other.width_mode_,
                   "inner product requires identical geometry and seed");
  std::vector<int64_t> row_products(depth_);
  for (uint64_t j = 0; j < depth_; ++j) {
    int64_t acc = 0;
    for (uint64_t b = 0; b < width_; ++b) {
      acc += counters_[j * width_ + b] * other.counters_[j * width_ + b];
    }
    row_products[j] = acc;
  }
  const auto mid = row_products.begin() + depth_ / 2;
  std::nth_element(row_products.begin(), mid, row_products.end());
  return *mid;
}

void CountSketch::Merge(const CountSketch& other) {
  SKETCH_CHECK_MSG(width_ == other.width_ && depth_ == other.depth_ &&
                       seed_ == other.seed_ &&
                       width_mode_ == other.width_mode_,
                   "merge requires identical geometry and seed");
  SKETCH_COUNTER_INC("sketch.count_sketch.merges");
  ops_.AddMerge(other.ops_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

uint64_t CountSketch::MemoryFootprintBytes() const {
  uint64_t bytes = sizeof(*this) + counters_.capacity() * sizeof(int64_t) +
                   bucket_rows_.capacity() * sizeof(BlockHasher) +
                   sign_rows_.capacity() * sizeof(BlockHasher);
  for (const BlockHasher& row : bucket_rows_) bytes += row.DynamicMemoryBytes();
  for (const BlockHasher& row : sign_rows_) bytes += row.DynamicMemoryBytes();
  return bytes;
}

StatsSnapshot CountSketch::Introspect() const {
  StatsSnapshot snapshot;
  snapshot.type = "CountSketch";
  snapshot.memory_bytes = MemoryFootprintBytes();
  snapshot.cells = counters_.size();
  snapshot.AddField("width", static_cast<double>(width_));
  snapshot.AddField("depth", static_cast<double>(depth_));
  snapshot.AddField("seed", static_cast<double>(seed_));
  snapshot.AddField("width_mode", static_cast<double>(width_mode_));
  snapshot.occupancy_log2 =
      telemetry::MagnitudeHistogram(counters_.data(), counters_.size());
  // Signed updates can cancel a bucket back to zero, so occupancy is a
  // slight *under*-estimate of load here — still the right live proxy for
  // the collision rate behind the eps*||x||_2 concentration bound
  // [Minton-Price'12].
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

std::vector<uint8_t> CountSketch::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(48 + counters_.size() * 8);
  // Division-mode buffers keep the v1 layout byte for byte; pow2 sketches
  // write the v2 magic and append the mode word to the header.
  if (width_mode_ == WidthMode::kDivision) {
    AppendU64(kCountSketchMagic, &out);
    AppendU64(width_, &out);
    AppendU64(depth_, &out);
    AppendU64(seed_, &out);
  } else {
    AppendU64(kCountSketchMagicV2, &out);
    AppendU64(width_, &out);
    AppendU64(depth_, &out);
    AppendU64(seed_, &out);
    AppendU64(static_cast<uint64_t>(width_mode_), &out);
  }
  AppendWords(counters_, &out);
  return out;
}

std::optional<CountSketch> CountSketch::TryDeserialize(
    std::span<const uint8_t> bytes, std::string* error) {
  ByteReader reader(bytes);
  uint64_t header[4] = {};
  if (!reader.ReadWords(header)) {
    return FailDecode(error, "truncated sketch buffer");
  }
  const auto [magic, width, depth, seed] = header;
  if (magic != kCountSketchMagic && magic != kCountSketchMagicV2) {
    return FailDecode(error, "not a CountSketch buffer");
  }
  if (width < 1 || depth < 1) {
    return FailDecode(error, "invalid CountSketch geometry");
  }
  WidthMode mode = WidthMode::kDivision;
  if (magic == kCountSketchMagicV2) {
    uint64_t mode_word = 0;
    if (!reader.ReadU64(&mode_word)) {
      return FailDecode(error, "truncated sketch buffer");
    }
    if (mode_word != static_cast<uint64_t>(WidthMode::kPow2)) {
      return FailDecode(error, "invalid CountSketch width mode");
    }
    if (!std::has_single_bit(width)) {
      return FailDecode(error, "pow2 CountSketch width is not a power of two");
    }
    mode = WidthMode::kPow2;
  }
  uint64_t cells = 0;
  if (!CheckedMulU64(width, depth, &cells)) {
    return FailDecode(error, "CountSketch geometry overflows");
  }
  if (!CheckSerializedSize(bytes, reader.words_read(), cells)) {
    return FailDecode(error, "CountSketch buffer size does not match geometry");
  }
  CountSketch sketch(width, depth, seed, mode);
  reader.ReadWords(sketch.counters_);
  return sketch;
}

}  // namespace sketch
