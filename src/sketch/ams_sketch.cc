#include "sketch/ams_sketch.h"

#include "common/byte_buffer.h"
#include "common/check.h"
#include "common/prng.h"
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

// AMS's own row seeds; its blobs predate the Count-Min/Count-Sketch rule.
uint64_t AmsBucketSeed(uint64_t seed, uint64_t row) {
  return SplitMix64Once(seed + 31 * row);
}
uint64_t AmsSignSeed(uint64_t seed, uint64_t row) {
  return SplitMix64Once(~seed + 37 * row);
}

}  // namespace

AmsSketch::AmsSketch(uint64_t width, uint64_t depth, uint64_t seed)
    : table_(width, depth, seed, WidthMode::kDivision,
             {AmsBucketSeed, AmsSignSeed, /*sign_independence=*/4}) {}

void AmsSketch::ApplyBatch(UpdateSpan updates) {
  SKETCH_TRACE_SPAN("ams.apply_batch");
  SKETCH_COUNTER_ADD("sketch.ams.batched_updates", updates.size());
  table_.ApplyBatch(updates);
}

double AmsSketch::EstimateF2() const {
  return MedianRowSumOfSquares(table_.counters(), width());
}

void AmsSketch::Merge(const AmsSketch& other) {
  SKETCH_CHECK_MSG(table_.SameGeometry(other.table_),
                   "merge requires identical geometry and seed");
  SKETCH_COUNTER_INC("sketch.ams.merges");
  table_.Add(other.table_);
}

uint64_t AmsSketch::MemoryFootprintBytes() const {
  return sizeof(*this) + table_.DynamicMemoryBytes();
}

StatsSnapshot AmsSketch::Introspect() const {
  StatsSnapshot snapshot = table_.Introspect(kTableFormat);
  snapshot.memory_bytes = MemoryFootprintBytes();
  return snapshot;
}

void AmsSketch::AppendSerialized(std::vector<uint8_t>* out) const {
  table_.AppendSerialized(kTableFormat, out);
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
  reader.ReadWords(sketch.table_.counters());
  return sketch;
}

}  // namespace sketch
