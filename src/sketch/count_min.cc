#include "sketch/count_min.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/byte_buffer.h"
#include "common/check.h"
#include "common/prng.h"
#include "common/wrapping.h"
#include "sketch/table_header.h"
#include "telemetry/telemetry.h"

namespace sketch {

namespace {
constexpr TableFormat kTableFormat = {
    0x534b434d494e3031ULL,  // "SKCMIN01"
    0x534b434d494e3032ULL,  // "SKCMIN02"
    "CountMinSketch", "width"};
}  // namespace

CountMinSketch::CountMinSketch(uint64_t width, uint64_t depth, uint64_t seed,
                               WidthMode mode)
    : width_(ApplyWidthMode(mode, width)),
      depth_(depth),
      seed_(seed),
      width_mode_(mode),
      width_div_(width_) {
  SKETCH_CHECK(width >= 1);
  SKETCH_CHECK(depth >= 1);
  SKETCH_CHECK_MSG(width_ <= UINT64_MAX / depth,
                   "counter table width * depth overflows");
  rows_.reserve(depth);
  for (uint64_t j = 0; j < depth; ++j) {
    // Seed derivation must match MakeCountMinMatrix/HashedRecovery so the
    // sketch and its explicit matrix form implement the same linear map.
    rows_.emplace_back(KWiseHash(/*independence=*/2,
                                 SplitMix64Once(seed * 2 + j)));
  }
  counters_.assign(width_ * depth, 0);
  bucket_scratch_.assign(depth, 0);
}

CountMinSketch CountMinSketch::FromErrorBounds(double eps, double delta,
                                               uint64_t seed) {
  SKETCH_CHECK(eps > 0.0 && eps < 1.0);
  SKETCH_CHECK(delta > 0.0 && delta < 1.0);
  const auto width = static_cast<uint64_t>(std::ceil(std::exp(1.0) / eps));
  const auto depth = static_cast<uint64_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(width, std::max<uint64_t>(depth, 1), seed);
}

void CountMinSketch::Update(const StreamUpdate& update) {
  ops_.AddUpdates(1);
  for (uint64_t j = 0; j < depth_; ++j) {
    int64_t& counter =
        counters_[j * width_ + rows_[j].BucketOne(update.item, width_div_)];
    counter = WrapAdd(counter, update.delta);
  }
}

void CountMinSketch::UpdateAll(const std::vector<StreamUpdate>& updates) {
  ApplyBatch(updates);
}

void CountMinSketch::ApplyBatch(UpdateSpan updates) {
  // Kernelized bulk path: structure-of-arrays traversal. For each block of
  // updates, one row's buckets are computed in a batch (BlockHasher) and
  // applied contiguously before moving to the next row, so the hash
  // coefficients stay in registers and each row's counter lines are
  // touched together. Counter addition commutes, so the final table — and
  // therefore Serialize() — is bit-identical to per-item Update() calls.
  SKETCH_TRACE_SPAN("count_min.apply_batch");
  SKETCH_COUNTER_ADD("sketch.count_min.batched_updates", updates.size());
  SKETCH_HISTOGRAM_RECORD("sketch.batch_size", updates.size());
  ops_.AddBatch(updates.size());
  constexpr std::size_t kBlock = 256;
  constexpr std::size_t kPrefetchAhead = 8;
  uint64_t keys[kBlock];
  uint64_t buckets[kBlock];
  const FastDiv64 div = width_div_;  // local copy keeps the magic constant
                                     // register-resident across the row loop
  const std::size_t total = updates.size();
  for (std::size_t start = 0; start < total; start += kBlock) {
    const std::size_t n = std::min(kBlock, total - start);
    const StreamUpdate* block = updates.data() + start;
    for (std::size_t i = 0; i < n; ++i) keys[i] = block[i].item;
    for (uint64_t j = 0; j < depth_; ++j) {
      rows_[j].BucketBlock(keys, n, div, buckets);
      int64_t* row = counters_.data() + j * width_;
      for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
          __builtin_prefetch(row + buckets[i + kPrefetchAhead], 1, 1);
        }
        row[buckets[i]] = WrapAdd(row[buckets[i]], block[i].delta);
      }
    }
  }
}

void CountMinSketch::UpdateConservative(uint64_t item, int64_t delta) {
  SKETCH_CHECK(delta > 0);
  ops_.AddUpdates(1);
  // Hash each row exactly once: the bucket feeds both the min-read (what
  // Estimate() would recompute) and the conservative write-back.
  int64_t estimate = 0;
  for (uint64_t j = 0; j < depth_; ++j) {
    const uint64_t b = rows_[j].BucketOne(item, width_div_);
    bucket_scratch_[j] = b;
    const int64_t c = counters_[j * width_ + b];
    estimate = (j == 0) ? c : std::min(estimate, c);
  }
  const int64_t target = estimate + delta;
  for (uint64_t j = 0; j < depth_; ++j) {
    int64_t& counter = counters_[j * width_ + bucket_scratch_[j]];
    counter = std::max(counter, target);
  }
}

int64_t CountMinSketch::Estimate(uint64_t item) const {
  int64_t best = counters_[rows_[0].BucketOne(item, width_div_)];
  for (uint64_t j = 1; j < depth_; ++j) {
    best = std::min(
        best, counters_[j * width_ + rows_[j].BucketOne(item, width_div_)]);
  }
  return best;
}

void CountMinSketch::EstimateBatch(const uint64_t* items, std::size_t n,
                                   int64_t* out) const {
  // Query-side mirror of ApplyBatch: per block of keys, each row batch-
  // computes its buckets (same BlockHasher kernels, so the same SIMD
  // dispatch applies) and folds its counters into the running min. The
  // min over rows is order-free, so out[i] == Estimate(items[i]) exactly.
  SKETCH_TRACE_SPAN("count_min.estimate_batch");
  SKETCH_COUNTER_ADD("sketch.count_min.batched_estimates", n);
  constexpr std::size_t kBlock = 256;
  uint64_t buckets[kBlock];
  const FastDiv64 div = width_div_;
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t block_n = std::min(kBlock, n - start);
    const uint64_t* keys = items + start;
    int64_t* block_out = out + start;
    for (uint64_t j = 0; j < depth_; ++j) {
      rows_[j].BucketBlock(keys, block_n, div, buckets);
      const int64_t* row = counters_.data() + j * width_;
      if (j == 0) {
        for (std::size_t i = 0; i < block_n; ++i) {
          block_out[i] = row[buckets[i]];
        }
      } else {
        for (std::size_t i = 0; i < block_n; ++i) {
          block_out[i] = std::min(block_out[i], row[buckets[i]]);
        }
      }
    }
  }
}

int64_t CountMinSketch::EstimateInnerProduct(
    const CountMinSketch& other) const {
  SKETCH_CHECK_MSG(width_ == other.width_ && depth_ == other.depth_ &&
                       seed_ == other.seed_ &&
                       width_mode_ == other.width_mode_,
                   "inner product requires identical geometry and seed");
  int64_t best = 0;
  for (uint64_t j = 0; j < depth_; ++j) {
    int64_t row_product = 0;
    for (uint64_t b = 0; b < width_; ++b) {
      row_product =
          WrapAdd(row_product, WrapMul(counters_[j * width_ + b],
                                       other.counters_[j * width_ + b]));
    }
    best = (j == 0) ? row_product : std::min(best, row_product);
  }
  return best;
}

void CountMinSketch::Merge(const CountMinSketch& other) {
  SKETCH_CHECK_MSG(width_ == other.width_ && depth_ == other.depth_ &&
                       seed_ == other.seed_ &&
                       width_mode_ == other.width_mode_,
                   "merge requires identical geometry and seed");
  SKETCH_COUNTER_INC("sketch.count_min.merges");
  ops_.AddMerge(other.ops_);
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = WrapAdd(counters_[i], other.counters_[i]);
  }
}

uint64_t CountMinSketch::MemoryFootprintBytes() const {
  uint64_t bytes = sizeof(*this) +
                   counters_.capacity() * sizeof(int64_t) +
                   bucket_scratch_.capacity() * sizeof(uint64_t) +
                   rows_.capacity() * sizeof(BlockHasher);
  for (const BlockHasher& row : rows_) bytes += row.DynamicMemoryBytes();
  return bytes;
}

StatsSnapshot CountMinSketch::Introspect() const {
  StatsSnapshot snapshot;
  snapshot.type = "CountMinSketch";
  snapshot.memory_bytes = MemoryFootprintBytes();
  snapshot.cells = counters_.size();
  snapshot.AddField("width", static_cast<double>(width_));
  snapshot.AddField("depth", static_cast<double>(depth_));
  snapshot.AddField("seed", static_cast<double>(seed_));
  snapshot.AddField("width_mode", static_cast<double>(width_mode_));
  snapshot.occupancy_log2 =
      telemetry::MagnitudeHistogram(counters_.data(), counters_.size());
  const double occupied = telemetry::OccupiedFraction(
      snapshot.occupancy_log2, counters_.size());
  snapshot.AddField("occupied_fraction", occupied);
  // Every row sees the full key stream, so the overall occupied fraction
  // is an unbiased view of a single row's load; invert it to estimate the
  // distinct keys and the per-key collision rate behind the eps*||x||_1
  // error bound.
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

void CountMinSketch::AppendSerialized(std::vector<uint8_t>* out) const {
  AppendTable(kTableFormat, {width_, depth_, seed_, width_mode_}, counters_,
              out);
}

std::vector<uint8_t> CountMinSketch::Serialize() const {
  return SerializedBytes(*this);
}

std::optional<CountMinSketch> CountMinSketch::TryDeserialize(
    std::span<const uint8_t> bytes, std::string* error) {
  ByteReader reader(bytes);
  const std::optional<TableHeader> header = ReadTableHeader(
      kTableFormat,
      [](uint64_t width, uint64_t depth) -> const char* {
        return width < 1 || depth < 1 ? "invalid CountMinSketch geometry"
                                      : nullptr;
      },
      &reader, error);
  if (!header) return std::nullopt;
  uint64_t cells = 0;
  if (!CheckedMulU64(header->size, header->depth, &cells)) {
    return FailDecode(error, "CountMinSketch geometry overflows");
  }
  if (!CheckSerializedSize(bytes, reader.words_read(), cells)) {
    return FailDecode(error,
                      "CountMinSketch buffer size does not match geometry");
  }
  CountMinSketch sketch(header->size, header->depth, header->seed,
                        header->mode);
  reader.ReadWords(sketch.counters_);
  return sketch;
}

}  // namespace sketch
