#include "sketch/count_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/byte_buffer.h"
#include "common/check.h"
#include "common/wrapping.h"
#include "sketch/sum_of_squares.h"
#include "sketch/table_header.h"
#include "telemetry/telemetry.h"

namespace sketch {

namespace {
constexpr TableFormat kTableFormat = {
    0x534b43534b543031ULL,  // "SKCSKT01"
    0x534b43534b543032ULL,  // "SKCSKT02"
    "CountSketch", "width"};
}  // namespace

CountSketch::CountSketch(uint64_t width, uint64_t depth, uint64_t seed,
                         WidthMode mode)
    : table_(width, depth, seed, mode,
             {RowBucketSeed, RowSignSeed, /*sign_independence=*/2}) {}

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

void CountSketch::ApplyBatch(UpdateSpan updates) {
  SKETCH_TRACE_SPAN("count_sketch.apply_batch");
  SKETCH_COUNTER_ADD("sketch.count_sketch.batched_updates", updates.size());
  table_.ApplyBatch(updates);
}

int64_t CountSketch::EstimateRow(uint64_t row, uint64_t item) const {
  return WrapMul(table_.SignOf(row, item),
                 table_.CounterAt(row, table_.BucketOf(row, item)));
}

namespace {

/// Median of `row_estimates` (destructively): the middle order statistic,
/// or for even counts the mean of the two middle order statistics,
/// truncated toward zero and exact for every pair of int64_t values.
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
  int64_t sum = 0;
  if (!__builtin_add_overflow(lower, upper, &sum)) return sum / 2;
  // The sum overflowed, so both share a sign: halve each and add back the
  // half of their remainders' sum, the exact mean truncated toward zero.
  return lower / 2 + upper / 2 + (lower % 2 + upper % 2) / 2;
}

}  // namespace

int64_t CountSketch::Estimate(uint64_t item) const {
  std::vector<int64_t> row_estimates(depth());
  for (uint64_t j = 0; j < depth(); ++j) {
    row_estimates[j] = EstimateRow(j, item);
  }
  return MedianOfRows(row_estimates);
}

void CountSketch::EstimateBatch(const uint64_t* items, std::size_t n,
                                int64_t* out) const {
  // Per block of keys, each row deposits its signed counters into a
  // row-major scratch pane; the per-item median is then taken over the
  // pane's column. Identical row estimates feed the identical median, so
  // out[i] == Estimate(items[i]) exactly.
  SKETCH_TRACE_SPAN("count_sketch.estimate_batch");
  SKETCH_COUNTER_ADD("sketch.count_sketch.batched_estimates", n);
  const uint64_t rows = depth();
  // One column per key of the largest block, so a small batch allocates
  // and zero-fills only what it uses.
  const std::size_t pane_width = std::min(CounterTable::kBlock, n);
  std::vector<int64_t> pane(rows * pane_width);
  std::vector<int64_t> row_estimates(rows);
  for (std::size_t start = 0; start < n; start += CounterTable::kBlock) {
    const std::size_t block_n = std::min(CounterTable::kBlock, n - start);
    const uint64_t* keys = items + start;
    for (uint64_t j = 0; j < rows; ++j) {
      int64_t* pane_row = pane.data() + j * pane_width;
      table_.ForEachRowValue(j, keys, block_n, [&](std::size_t i, int64_t v) {
        pane_row[i] = v;
      });
    }
    for (std::size_t i = 0; i < block_n; ++i) {
      for (uint64_t j = 0; j < rows; ++j) {
        row_estimates[j] = pane[j * pane_width + i];
      }
      out[start + i] = MedianOfRows(row_estimates);
    }
  }
}

int64_t CountSketch::EstimateInnerProduct(const CountSketch& other) const {
  std::vector<int64_t> products = table_.RowInnerProducts(other.table_);
  const auto mid = products.begin() + depth() / 2;
  std::nth_element(products.begin(), mid, products.end());
  return *mid;
}

double CountSketch::EstimateF2() const {
  return MedianRowSumOfSquares(table_.counters(), width());
}

void CountSketch::Merge(const CountSketch& other) {
  SKETCH_CHECK_MSG(table_.SameGeometry(other.table_),
                   "merge requires identical geometry and seed");
  SKETCH_COUNTER_INC("sketch.count_sketch.merges");
  table_.Add(other.table_);
}

uint64_t CountSketch::MemoryFootprintBytes() const {
  return sizeof(*this) + table_.DynamicMemoryBytes();
}

StatsSnapshot CountSketch::Introspect() const {
  StatsSnapshot snapshot = table_.Introspect(kTableFormat);
  snapshot.memory_bytes = MemoryFootprintBytes();
  return snapshot;
}

void CountSketch::AppendSerialized(std::vector<uint8_t>* out) const {
  table_.AppendSerialized(kTableFormat, out);
}

std::optional<CountSketch> CountSketch::TryDeserialize(
    std::span<const uint8_t> bytes, std::string* error) {
  ByteReader reader(bytes);
  const std::optional<TableHeader> header = ReadTableHeader(
      kTableFormat,
      [](uint64_t width, uint64_t depth) -> const char* {
        return width < 1 || depth < 1 ? "invalid CountSketch geometry"
                                      : nullptr;
      },
      &reader, error);
  if (!header) return std::nullopt;
  uint64_t cells = 0;
  if (!CheckedMulU64(header->size, header->depth, &cells)) {
    return FailDecode(error, "CountSketch geometry overflows");
  }
  if (!CheckSerializedSize(bytes, reader.words_read(), cells)) {
    return FailDecode(error, "CountSketch buffer size does not match geometry");
  }
  CountSketch sketch(header->size, header->depth, header->seed, header->mode);
  reader.ReadWords(sketch.table_.counters());
  return sketch;
}

}  // namespace sketch
