#include "sketch/count_min.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/byte_buffer.h"
#include "common/check.h"
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
    : table_(width, depth, seed, mode,
             {RowBucketSeed, /*sign_seed=*/nullptr, /*sign_independence=*/0}),
      bucket_scratch_(depth, 0) {}

CountMinSketch CountMinSketch::FromErrorBounds(double eps, double delta,
                                               uint64_t seed) {
  SKETCH_CHECK(eps > 0.0 && eps < 1.0);
  SKETCH_CHECK(delta > 0.0 && delta < 1.0);
  const auto width = static_cast<uint64_t>(std::ceil(std::exp(1.0) / eps));
  const auto depth = static_cast<uint64_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(width, std::max<uint64_t>(depth, 1), seed);
}

void CountMinSketch::ApplyBatch(UpdateSpan updates) {
  SKETCH_TRACE_SPAN("count_min.apply_batch");
  SKETCH_COUNTER_ADD("sketch.count_min.batched_updates", updates.size());
  table_.ApplyBatch(updates);
}

void CountMinSketch::UpdateConservative(uint64_t item, int64_t delta) {
  SKETCH_CHECK(delta > 0);
  table_.ops().AddUpdates(1);
  // Hash each row exactly once: the bucket feeds both the min-read (what
  // Estimate() would recompute) and the conservative write-back.
  int64_t estimate = 0;
  for (uint64_t j = 0; j < depth(); ++j) {
    const uint64_t b = table_.BucketOf(j, item);
    bucket_scratch_[j] = b;
    const int64_t c = table_.CounterAt(j, b);
    estimate = (j == 0) ? c : std::min(estimate, c);
  }
  const int64_t target = estimate + delta;
  for (uint64_t j = 0; j < depth(); ++j) {
    int64_t& counter = table_.CounterAt(j, bucket_scratch_[j]);
    counter = std::max(counter, target);
  }
}

int64_t CountMinSketch::Estimate(uint64_t item) const {
  int64_t best = table_.CounterAt(0, table_.BucketOf(0, item));
  for (uint64_t j = 1; j < depth(); ++j) {
    best = std::min(best, table_.CounterAt(j, table_.BucketOf(j, item)));
  }
  return best;
}

void CountMinSketch::EstimateBatch(const uint64_t* items, std::size_t n,
                                   int64_t* out) const {
  // Per block of keys, each row's counters fold into the running min. The
  // min over rows is order-free, so out[i] == Estimate(items[i]) exactly.
  SKETCH_TRACE_SPAN("count_min.estimate_batch");
  SKETCH_COUNTER_ADD("sketch.count_min.batched_estimates", n);
  for (std::size_t start = 0; start < n; start += CounterTable::kBlock) {
    const std::size_t block_n = std::min(CounterTable::kBlock, n - start);
    const uint64_t* keys = items + start;
    int64_t* block_out = out + start;
    table_.ForEachRowValue(0, keys, block_n, [&](std::size_t i, int64_t c) {
      block_out[i] = c;
    });
    for (uint64_t j = 1; j < depth(); ++j) {
      table_.ForEachRowValue(j, keys, block_n, [&](std::size_t i, int64_t c) {
        block_out[i] = std::min(block_out[i], c);
      });
    }
  }
}

int64_t CountMinSketch::EstimateInnerProduct(
    const CountMinSketch& other) const {
  const std::vector<int64_t> products = table_.RowInnerProducts(other.table_);
  return *std::min_element(products.begin(), products.end());
}

void CountMinSketch::Merge(const CountMinSketch& other) {
  SKETCH_CHECK_MSG(table_.SameGeometry(other.table_),
                   "merge requires identical geometry and seed");
  SKETCH_COUNTER_INC("sketch.count_min.merges");
  table_.Add(other.table_);
}

uint64_t CountMinSketch::MemoryFootprintBytes() const {
  return sizeof(*this) + table_.DynamicMemoryBytes() +
         bucket_scratch_.capacity() * sizeof(uint64_t);
}

StatsSnapshot CountMinSketch::Introspect() const {
  StatsSnapshot snapshot = table_.Introspect(kTableFormat);
  snapshot.memory_bytes = MemoryFootprintBytes();
  return snapshot;
}

void CountMinSketch::AppendSerialized(std::vector<uint8_t>* out) const {
  table_.AppendSerialized(kTableFormat, out);
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
  reader.ReadWords(sketch.table_.counters());
  return sketch;
}

}  // namespace sketch
