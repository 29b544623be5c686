#include "sketch/counter_table.h"

#include <algorithm>

#include "common/check.h"
#include "hash/kwise_hash.h"
#include "telemetry/telemetry.h"

namespace sketch {

CounterTable::CounterTable(uint64_t width, uint64_t depth, uint64_t seed,
                           WidthMode mode, const RowHashing& hashing)
    : width_(ApplyWidthMode(mode, width)),
      depth_(depth),
      seed_(seed),
      width_mode_(mode),
      width_div_(width_) {
  SKETCH_CHECK(width >= 1);
  SKETCH_CHECK(depth >= 1);
  SKETCH_CHECK_MSG(width_ <= UINT64_MAX / depth,
                   "counter table width * depth overflows");
  bucket_rows_.reserve(depth);
  if (hashing.sign_seed != nullptr) sign_rows_.reserve(depth);
  for (uint64_t j = 0; j < depth; ++j) {
    bucket_rows_.emplace_back(KWiseHash(2, hashing.bucket_seed(seed, j)));
    if (hashing.sign_seed != nullptr) {
      sign_rows_.emplace_back(KWiseHash(hashing.sign_independence,
                                        hashing.sign_seed(seed, j)));
    }
  }
  counters_.assign(width_ * depth, 0);
}

void CounterTable::Update(const StreamUpdate& update) {
  ops_.AddUpdates(1);
  if (sign_rows_.empty()) {
    UpdateRows<false>(update);
  } else {
    UpdateRows<true>(update);
  }
}

template <bool kSigned>
void CounterTable::UpdateRows(const StreamUpdate& update) {
  for (uint64_t j = 0; j < depth_; ++j) {
    const uint64_t b = bucket_rows_[j].BucketOne(update.item, width_div_);
    if constexpr (kSigned) {
      // Keep this shape: with the counter behind a reference or a hoisted
      // index, g++ -O3 made the ±1 multiply a branch on the hash's sign
      // bit, and signed per-item updates ran ~1.7x slower.
      counters_[j * width_ + b] =
          WrapAdd(counters_[j * width_ + b],
                  WrapMul(sign_rows_[j].SignOne(update.item), update.delta));
    } else {
      counters_[j * width_ + b] =
          WrapAdd(counters_[j * width_ + b], update.delta);
    }
  }
}

void CounterTable::ApplyBatch(UpdateSpan updates) {
  SKETCH_HISTOGRAM_RECORD("sketch.batch_size", updates.size());
  ops_.AddBatch(updates.size());
  if (sign_rows_.empty()) {
    ApplyBlocks<false>(updates);
  } else {
    ApplyBlocks<true>(updates);
  }
}

template <bool kSigned>
void CounterTable::ApplyBlocks(UpdateSpan updates) {
  constexpr std::size_t kPrefetchAhead = 8;
  uint64_t keys[kBlock];
  uint64_t buckets[kBlock];
  [[maybe_unused]] int64_t signs[kBlock];
  const FastDiv64 div = width_div_;  // local copy keeps the magic constant
                                     // register-resident across the row loop
  const std::size_t total = updates.size();
  for (std::size_t start = 0; start < total; start += kBlock) {
    const std::size_t n = std::min(kBlock, total - start);
    const StreamUpdate* block = updates.data() + start;
    for (std::size_t i = 0; i < n; ++i) keys[i] = block[i].item;
    for (uint64_t j = 0; j < depth_; ++j) {
      bucket_rows_[j].BucketBlock(keys, n, div, buckets);
      if constexpr (kSigned) sign_rows_[j].SignBlock(keys, n, signs);
      int64_t* row = counters_.data() + j * width_;
      for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
          __builtin_prefetch(row + buckets[i + kPrefetchAhead], 1, 1);
        }
        const int64_t delta =
            kSigned ? WrapMul(signs[i], block[i].delta) : block[i].delta;
        row[buckets[i]] = WrapAdd(row[buckets[i]], delta);
      }
    }
  }
}

bool CounterTable::SameGeometry(const CounterTable& other) const {
  return width_ == other.width_ && depth_ == other.depth_ &&
         seed_ == other.seed_ && width_mode_ == other.width_mode_;
}

void CounterTable::Add(const CounterTable& other) {
  ops_.AddMerge(other.ops_);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] = WrapAdd(counters_[i], other.counters_[i]);
  }
}

std::vector<int64_t> CounterTable::RowInnerProducts(
    const CounterTable& other) const {
  SKETCH_CHECK_MSG(SameGeometry(other),
                   "inner product requires identical geometry and seed");
  std::vector<int64_t> products(depth_);
  for (uint64_t j = 0; j < depth_; ++j) {
    int64_t acc = 0;
    for (uint64_t b = 0; b < width_; ++b) {
      acc = WrapAdd(acc, WrapMul(CounterAt(j, b), other.CounterAt(j, b)));
    }
    products[j] = acc;
  }
  return products;
}

uint64_t CounterTable::DynamicMemoryBytes() const {
  uint64_t bytes = counters_.capacity() * sizeof(int64_t) +
                   bucket_rows_.capacity() * sizeof(BlockHasher) +
                   sign_rows_.capacity() * sizeof(BlockHasher);
  for (const BlockHasher& row : bucket_rows_) bytes += row.DynamicMemoryBytes();
  for (const BlockHasher& row : sign_rows_) bytes += row.DynamicMemoryBytes();
  return bytes;
}

StatsSnapshot CounterTable::Introspect(const TableFormat& format) const {
  StatsSnapshot snapshot;
  snapshot.type = format.family;
  snapshot.cells = counters_.size();
  snapshot.AddField("width", static_cast<double>(width_));
  snapshot.AddField("depth", static_cast<double>(depth_));
  snapshot.AddField("seed", static_cast<double>(seed_));
  if (format.has_width_mode()) {
    snapshot.AddField("width_mode", static_cast<double>(width_mode_));
  }
  snapshot.occupancy_log2 =
      telemetry::MagnitudeHistogram(counters_.data(), counters_.size());
  // Every row sees the full key stream, so the occupied fraction is an
  // unbiased view of one row's load; inverting it estimates the distinct
  // keys and the collision rate behind each family's error bound. Signed
  // buckets can cancel to zero, so there it slightly under-counts load.
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

void CounterTable::AppendSerialized(const TableFormat& format,
                                    std::vector<uint8_t>* out) const {
  AppendTable(format, {width_, depth_, seed_, width_mode_}, counters_, out);
}

}  // namespace sketch
