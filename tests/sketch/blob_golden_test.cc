// Golden-file pin of the sketch blob encoding. Round-trip tests cannot
// see a change that the writer and the reader make together (a reordered
// header, a different magic), so each serializable family is built from
// fixed inputs and its Serialize() output is compared byte-for-byte with
// tests/sketch/testdata/sketch_blob_golden.txt. A failure means the blob
// format changed: fix the regression, or for a deliberate format change
// regenerate the file from the "ACTUAL" lines this test prints.

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "sketch/stream_summary.h"
#include "stream/update.h"

namespace sketch {
namespace {

std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::map<std::string, std::string> LoadGolden() {
  const std::string path =
      std::string(SKETCH_TESTDATA_DIR) + "/sketch_blob_golden.txt";
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "missing golden file: " << path;
  std::map<std::string, std::string> golden;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "malformed golden line: " << line;
      continue;
    }
    golden[line.substr(0, space)] = line.substr(space + 1);
  }
  return golden;
}

/// The fixed stream every sketch ingests: small items (inside a 2^4
/// universe), a negative delta, and a repeated key.
const std::vector<StreamUpdate>& Stream() {
  static const std::vector<StreamUpdate> kStream = {
      {1, 3}, {2, -1}, {7, 5}, {15, 2}, {1, 4}, {9, 1}};
  return kStream;
}

template <typename S>
std::vector<uint8_t> Ingested(S sketch) {
  sketch.ApplyBatch(UpdateSpan(Stream()));
  return sketch.Serialize();
}

/// Every pinned blob, built from fixed geometry and seeds. The division
/// widths are not powers of two, so the v1 and v2 rows differ in width
/// as well as in magic and mode word.
std::map<std::string, std::vector<uint8_t>> SerializeAll() {
  std::map<std::string, std::vector<uint8_t>> blobs;
  blobs["count_min_v1"] = Ingested(CountMinSketch(5, 2, 11));
  blobs["count_min_v2"] =
      Ingested(CountMinSketch(5, 2, 11, WidthMode::kPow2));
  blobs["count_sketch_v1"] = Ingested(CountSketch(5, 2, 12));
  blobs["count_sketch_v2"] =
      Ingested(CountSketch(5, 2, 12, WidthMode::kPow2));
  blobs["bloom_v1"] = Ingested(BloomFilter(100, 3, 13));
  blobs["bloom_v2"] = Ingested(BloomFilter(100, 3, 13, WidthMode::kPow2));
  blobs["ams"] = Ingested(AmsSketch(4, 2, 14));
  blobs["dyadic_count_min"] = Ingested(DyadicCountMin(4, 4, 2, 15));
  StreamSummary::Options options;
  options.log_universe = 4;
  options.width = 4;
  options.depth = 2;
  options.verify_width = 4;
  options.seed = 16;
  blobs["stream_summary"] = Ingested(StreamSummary(options));
  return blobs;
}

TEST(SketchBlobGoldenTest, EveryFamilyMatchesTheGoldenBytes) {
  const std::map<std::string, std::string> golden = LoadGolden();
  const std::map<std::string, std::vector<uint8_t>> blobs = SerializeAll();
  for (const auto& [name, bytes] : blobs) {
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no golden entry for '" << name << "'";
    EXPECT_EQ(ToHex(bytes), it->second)
        << "blob format drifted for '" << name << "'\nACTUAL " << name << " "
        << ToHex(bytes);
  }
  for (const auto& [name, hex] : golden) {
    EXPECT_TRUE(blobs.count(name))
        << "golden entry '" << name << "' has no sketch in this test";
  }
}

template <typename S>
void ExpectReserializes(const std::string& hex) {
  const std::vector<uint8_t> bytes = FromHex(hex);
  std::string error;
  const std::optional<S> sketch = S::TryDeserialize(bytes, &error);
  ASSERT_TRUE(sketch.has_value()) << error;
  EXPECT_EQ(sketch->Serialize(), bytes);
}

TEST(SketchBlobGoldenTest, GoldenBlobsDecodeAndReserializeBitIdentically) {
  // Yesterday's bytes must still restore, and restore to the same bytes.
  const std::map<std::string, std::string> golden = LoadGolden();
  ASSERT_EQ(golden.size(), 9u);
  ExpectReserializes<CountMinSketch>(golden.at("count_min_v1"));
  ExpectReserializes<CountMinSketch>(golden.at("count_min_v2"));
  ExpectReserializes<CountSketch>(golden.at("count_sketch_v1"));
  ExpectReserializes<CountSketch>(golden.at("count_sketch_v2"));
  ExpectReserializes<BloomFilter>(golden.at("bloom_v1"));
  ExpectReserializes<BloomFilter>(golden.at("bloom_v2"));
  ExpectReserializes<AmsSketch>(golden.at("ams"));
  ExpectReserializes<DyadicCountMin>(golden.at("dyadic_count_min"));
  ExpectReserializes<StreamSummary>(golden.at("stream_summary"));
}

}  // namespace
}  // namespace sketch
