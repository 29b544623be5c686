// Serialization round-trip tests: the hash state reconstructs from the
// persisted seed, so a deserialized sketch must answer every query
// identically and remain mergeable with live sketches of the same seed.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"

namespace sketch {
namespace {

TEST(SerializationTest, CountMinRoundTripPreservesEstimates) {
  CountMinSketch original(256, 5, 42);
  original.UpdateAll(MakeZipfStream(1 << 12, 1.1, 10000, 1));
  const CountMinSketch restored =
      CountMinSketch::TryDeserialize(original.Serialize(), nullptr).value();
  EXPECT_EQ(restored.width(), original.width());
  EXPECT_EQ(restored.depth(), original.depth());
  EXPECT_EQ(restored.seed(), original.seed());
  for (uint64_t item = 0; item < (1 << 12); ++item) {
    ASSERT_EQ(restored.Estimate(item), original.Estimate(item)) << item;
  }
}

TEST(SerializationTest, CountMinRestoredSketchIsStillUpdatable) {
  CountMinSketch original(64, 3, 7);
  original.Update({5, 10});
  CountMinSketch restored =
      CountMinSketch::TryDeserialize(original.Serialize(), nullptr).value();
  restored.Update({5, 5});
  EXPECT_EQ(restored.Estimate(5), 15);
}

TEST(SerializationTest, CountMinRestoredSketchMergesWithLiveOne) {
  CountMinSketch a(128, 4, 9);
  CountMinSketch b(128, 4, 9);
  a.Update({1, 3});
  b.Update({1, 4});
  CountMinSketch restored =
      CountMinSketch::TryDeserialize(a.Serialize(), nullptr).value();
  restored.Merge(b);
  EXPECT_EQ(restored.Estimate(1), 7);
}

TEST(SerializationTest, CountSketchRoundTripPreservesEstimates) {
  CountSketch original(256, 5, 43);
  original.UpdateAll(MakeTurnstileStream(1 << 10, 1.0, 5000, 0.5, 2));
  const CountSketch restored =
      CountSketch::TryDeserialize(original.Serialize(), nullptr).value();
  for (uint64_t item = 0; item < (1 << 10); ++item) {
    ASSERT_EQ(restored.Estimate(item), original.Estimate(item)) << item;
  }
}

TEST(SerializationTest, BloomRoundTripPreservesMembership) {
  BloomFilter original(1 << 12, 5, 44);
  for (uint64_t k = 0; k < 500; ++k) original.Insert(k * 3);
  const BloomFilter restored =
      BloomFilter::TryDeserialize(original.Serialize(), nullptr).value();
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_EQ(restored.MayContain(k), original.MayContain(k)) << k;
  }
  EXPECT_DOUBLE_EQ(restored.FillRatio(), original.FillRatio());
}

TEST(SerializationTest, AmsRoundTripPreservesEstimateAndMerges) {
  AmsSketch original(128, 5, 45);
  original.UpdateAll(MakeZipfStream(1 << 10, 1.2, 4000, 3));
  const AmsSketch restored =
      AmsSketch::TryDeserialize(original.Serialize(), nullptr).value();
  EXPECT_EQ(restored.width(), original.width());
  EXPECT_EQ(restored.depth(), original.depth());
  EXPECT_EQ(restored.seed(), original.seed());
  EXPECT_DOUBLE_EQ(restored.EstimateF2(), original.EstimateF2());

  AmsSketch live(128, 5, 45);
  live.Update({1, 2});
  AmsSketch merged =
      AmsSketch::TryDeserialize(original.Serialize(), nullptr).value();
  merged.Merge(live);
  EXPECT_EQ(merged.Serialize().size(), original.Serialize().size());
}

// MemoryFootprintBytes() must track reality: it covers everything
// Serialize() persists (so it is never smaller than the buffer) plus the
// object body, hashers, and container slack — bounded here by a fixed
// allowance so the accounting cannot silently drift from the actual
// allocations.
template <typename S>
void ExpectFootprintTracksSerializedSize(const S& sketch) {
  constexpr uint64_t kOverheadSlack = 4096;
  const uint64_t footprint = sketch.MemoryFootprintBytes();
  const uint64_t serialized = sketch.Serialize().size();
  EXPECT_GE(footprint, serialized);
  EXPECT_LE(footprint, serialized + kOverheadSlack);
}

TEST(SerializationTest, FootprintTracksSerializedSize) {
  CountMinSketch cm(256, 5, 42);
  cm.UpdateAll(MakeZipfStream(1 << 12, 1.1, 10000, 1));
  ExpectFootprintTracksSerializedSize(cm);

  CountSketch cs(256, 5, 43);
  cs.UpdateAll(MakeZipfStream(1 << 10, 1.0, 5000, 2));
  ExpectFootprintTracksSerializedSize(cs);

  BloomFilter bf(1 << 12, 5, 44);
  for (uint64_t k = 0; k < 500; ++k) bf.Insert(k * 3);
  ExpectFootprintTracksSerializedSize(bf);

  AmsSketch ams(128, 5, 45);
  ams.UpdateAll(MakeZipfStream(1 << 10, 1.2, 4000, 3));
  ExpectFootprintTracksSerializedSize(ams);
}

TEST(SerializationTest, BufferSizesAreExact) {
  CountMinSketch cm(10, 3, 1);
  EXPECT_EQ(cm.Serialize().size(), 32u + 30u * 8u);
  BloomFilter bf(128, 2, 1);
  EXPECT_EQ(bf.Serialize().size(), 32u + 2u * 8u);  // 128 bits = 2 words
}

TEST(SerializationTest, WrongMagicIsRejected) {
  CountMinSketch cm(8, 2, 1);
  std::vector<uint8_t> bytes = cm.Serialize();
  bytes[0] ^= 0xff;
  std::string error;
  EXPECT_FALSE(CountMinSketch::TryDeserialize(bytes, &error));
  EXPECT_EQ(error, "not a CountMinSketch buffer");
}

TEST(SerializationTest, TruncatedBufferIsRejected) {
  CountSketch cs(8, 2, 1);
  std::vector<uint8_t> bytes = cs.Serialize();
  bytes.resize(bytes.size() - 4);
  std::string error;
  EXPECT_FALSE(CountSketch::TryDeserialize(bytes, &error));
  EXPECT_EQ(error, "CountSketch buffer size does not match geometry");
}

TEST(SerializationTest, CrossTypeBufferIsRejected) {
  BloomFilter bf(64, 2, 1);
  std::string error;
  EXPECT_FALSE(CountMinSketch::TryDeserialize(bf.Serialize(), &error));
  EXPECT_EQ(error, "not a CountMinSketch buffer");
}

}  // namespace
}  // namespace sketch
