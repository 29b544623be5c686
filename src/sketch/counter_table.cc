#include "sketch/counter_table.h"

#include <algorithm>

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace sketch {

CounterTable::CounterTable(uint64_t width, uint64_t depth, uint64_t seed,
                           WidthMode mode, const RowHashing& hashing)
    : seed_(seed),
      width_mode_(mode),
      rows_(ApplyWidthMode(mode, width), depth, seed, hashing) {
  SKETCH_CHECK(width >= 1);
  counters_.assign(rows_.width() * depth, 0);
}

void CounterTable::Update(const StreamUpdate& update) {
  ops_.AddUpdates(1);
  if (!rows_.is_signed()) {
    UpdateRows<false>(update);
  } else {
    UpdateRows<true>(update);
  }
}

template <bool kSigned>
void CounterTable::UpdateRows(const StreamUpdate& update) {
  const uint64_t width = rows_.width();
  const uint64_t depth = rows_.depth();
  for (uint64_t j = 0; j < depth; ++j) {
    const uint64_t b = rows_.BucketOf(j, update.item);
    if constexpr (kSigned) {
      // Keep this shape: with the counter behind a reference or a hoisted
      // index, g++ -O3 made the ±1 multiply a branch on the hash's sign
      // bit, and signed per-item updates ran ~1.7x slower.
      counters_[j * width + b] =
          WrapAdd(counters_[j * width + b],
                  WrapMul(rows_.SignOf(j, update.item), update.delta));
    } else {
      counters_[j * width + b] =
          WrapAdd(counters_[j * width + b], update.delta);
    }
  }
}

void CounterTable::ApplyBatch(UpdateSpan updates) {
  SKETCH_HISTOGRAM_RECORD("sketch.batch_size", updates.size());
  ops_.AddBatch(updates.size());
  if (!rows_.is_signed()) {
    ApplyBlocks<false>(updates);
  } else {
    ApplyBlocks<true>(updates);
  }
}

template <bool kSigned>
void CounterTable::ApplyBlocks(UpdateSpan updates) {
  // How far ahead the counter scatter prefetches, in updates. A served
  // ingest window starts on a table that other sketches' windows pushed
  // out of L2; 64 covers that cold start and costs nothing on a hot table
  // (E36's sweep of 8, 16, 32 and 64 in bench_kernels' ApplyBatchWindows
  // rows).
  constexpr std::size_t kPrefetchAhead = 64;
  uint64_t keys[kBlock];
  uint64_t buckets[kBlock];
  [[maybe_unused]] int64_t signs[kBlock];
  const FastDiv64 div = rows_.width_div();  // local copy keeps the magic
                                            // constant register-resident
                                            // across the row loop
  const uint64_t width = rows_.width();
  const uint64_t depth = rows_.depth();
  const std::size_t total = updates.size();
  for (std::size_t start = 0; start < total; start += kBlock) {
    const std::size_t n = std::min(kBlock, total - start);
    const StreamUpdate* block = updates.data() + start;
    for (std::size_t i = 0; i < n; ++i) keys[i] = block[i].item;
    for (uint64_t j = 0; j < depth; ++j) {
      rows_.BucketBlock(j, keys, n, div, buckets);
      if constexpr (kSigned) rows_.SignBlock(j, keys, n, signs);
      int64_t* row = counters_.data() + j * width;
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
  return width() == other.width() && depth() == other.depth() &&
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
  std::vector<int64_t> products(depth());
  for (uint64_t j = 0; j < depth(); ++j) {
    int64_t acc = 0;
    for (uint64_t b = 0; b < width(); ++b) {
      acc = WrapAdd(acc, WrapMul(CounterAt(j, b), other.CounterAt(j, b)));
    }
    products[j] = acc;
  }
  return products;
}

uint64_t CounterTable::DynamicMemoryBytes() const {
  return counters_.capacity() * sizeof(int64_t) + rows_.DynamicMemoryBytes();
}

StatsSnapshot CounterTable::Introspect(const TableFormat& format) const {
  StatsSnapshot snapshot;
  snapshot.type = format.family;
  snapshot.cells = counters_.size();
  snapshot.AddField("width", static_cast<double>(width()));
  snapshot.AddField("depth", static_cast<double>(depth()));
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
      occupied, static_cast<double>(width()));
  snapshot.AddField("estimated_distinct_keys", distinct);
  snapshot.AddField(
      "estimated_collision_rate",
      telemetry::EstimateCollisionRate(distinct,
                                       static_cast<double>(width())));
  snapshot.AddField("updates", static_cast<double>(ops_.updates()));
  snapshot.AddField("batches", static_cast<double>(ops_.batches()));
  snapshot.AddField("merges", static_cast<double>(ops_.merges()));
  return snapshot;
}

void CounterTable::AppendSerialized(const TableFormat& format,
                                    std::vector<uint8_t>* out) const {
  AppendTable(format, {width(), depth(), seed_, width_mode_}, counters_,
              out);
}

}  // namespace sketch
