// WidthMode::kPow2 property tests: the rounded-width mask mode must agree
// bucket-for-bucket with a division-mode sketch of the same (power-of-two)
// width, round-trip through the v2 serialization format, refuse to merge
// or inner-product across modes, and abort on malformed v2 buffers —
// while division-mode buffers stay byte-identical to the v1 layout.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/prng.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/width_mode.h"
#include "stream/generators.h"
#include "stream/update.h"

namespace sketch {
namespace {

std::vector<StreamUpdate> TestStream(uint64_t seed) {
  return MakeTurnstileStream(1 << 16, 1.1, 20000, /*delete_fraction=*/0.25,
                             seed);
}

TEST(WidthModeTest, ApplyWidthModeRoundsUpOnlyInPow2) {
  EXPECT_EQ(ApplyWidthMode(WidthMode::kDivision, 1000), 1000u);
  EXPECT_EQ(ApplyWidthMode(WidthMode::kPow2, 1000), 1024u);
  EXPECT_EQ(ApplyWidthMode(WidthMode::kPow2, 1024), 1024u);
  EXPECT_EQ(ApplyWidthMode(WidthMode::kPow2, 1), 1u);
  EXPECT_EQ(ApplyWidthMode(WidthMode::kPow2, (1ULL << 40) + 1),
            1ULL << 41);
  EXPECT_EQ(WidthModeMask(WidthMode::kDivision, 1000), 0u);
  EXPECT_EQ(WidthModeMask(WidthMode::kPow2, 1024), 1023u);
}

TEST(WidthModeTest, WidthModeNames) {
  EXPECT_STREQ(WidthModeName(WidthMode::kDivision), "division");
  EXPECT_STREQ(WidthModeName(WidthMode::kPow2), "pow2");
}

// At an already-power-of-two width, division mode and pow2 mode hash every
// key to the same bucket (FastDiv64::Mod == mask there), so the counter
// arrays must match exactly; only the serialized header differs.
TEST(WidthModeTest, Pow2MatchesDivisionAtPow2Width) {
  const std::vector<StreamUpdate> stream = TestStream(3);
  CountMinSketch cm_div(4096, 5, 17);
  CountMinSketch cm_pow2(4096, 5, 17, WidthMode::kPow2);
  cm_div.ApplyBatch(stream);
  cm_pow2.ApplyBatch(stream);
  EXPECT_EQ(cm_pow2.width(), 4096u);
  Xoshiro256StarStar rng(9);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t item = rng.Next();
    ASSERT_EQ(cm_div.Estimate(item), cm_pow2.Estimate(item)) << item;
  }

  CountSketch cs_div(4096, 5, 19);
  CountSketch cs_pow2(4096, 5, 19, WidthMode::kPow2);
  cs_div.ApplyBatch(stream);
  cs_pow2.ApplyBatch(stream);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t item = rng.Next();
    ASSERT_EQ(cs_div.Estimate(item), cs_pow2.Estimate(item)) << item;
  }

  BloomFilter bf_div(1 << 16, 5, 23);
  BloomFilter bf_pow2(1 << 16, 5, 23, WidthMode::kPow2);
  for (const StreamUpdate& u : stream) {
    bf_div.Insert(u.item);
    bf_pow2.Insert(u.item);
  }
  for (int i = 0; i < 2000; ++i) {
    const uint64_t item = rng.Next();
    ASSERT_EQ(bf_div.MayContain(item), bf_pow2.MayContain(item)) << item;
  }
}

TEST(WidthModeTest, NonPow2RequestIsRoundedUp) {
  CountMinSketch cm(1000, 3, 1, WidthMode::kPow2);
  EXPECT_EQ(cm.width(), 1024u);
  EXPECT_EQ(cm.width_mode(), WidthMode::kPow2);
  CountSketch cs(5000, 3, 1, WidthMode::kPow2);
  EXPECT_EQ(cs.width(), 8192u);
  BloomFilter bf(100000, 4, 1, WidthMode::kPow2);
  EXPECT_EQ(bf.num_bits(), 131072u);
}

TEST(WidthModeTest, V2SerializationRoundTrips) {
  const std::vector<StreamUpdate> stream = TestStream(5);

  CountMinSketch cm(1000, 4, 31, WidthMode::kPow2);
  cm.ApplyBatch(stream);
  const CountMinSketch cm2 =
      CountMinSketch::TryDeserialize(cm.Serialize(), nullptr).value();
  EXPECT_EQ(cm2.width(), cm.width());
  EXPECT_EQ(cm2.width_mode(), WidthMode::kPow2);
  EXPECT_EQ(cm2.Serialize(), cm.Serialize());

  CountSketch cs(1000, 4, 37, WidthMode::kPow2);
  cs.ApplyBatch(stream);
  const CountSketch cs2 =
      CountSketch::TryDeserialize(cs.Serialize(), nullptr).value();
  EXPECT_EQ(cs2.width_mode(), WidthMode::kPow2);
  EXPECT_EQ(cs2.Serialize(), cs.Serialize());

  BloomFilter bf(100000, 5, 41, WidthMode::kPow2);
  for (const StreamUpdate& u : stream) bf.Insert(u.item);
  const BloomFilter bf2 =
      BloomFilter::TryDeserialize(bf.Serialize(), nullptr).value();
  EXPECT_EQ(bf2.width_mode(), WidthMode::kPow2);
  EXPECT_EQ(bf2.Serialize(), bf.Serialize());
}

// Division-mode sketches must keep writing the exact v1 header so every
// buffer serialized before the width-mode change still round-trips and
// golden wire fixtures stay valid.
TEST(WidthModeTest, DivisionModeKeepsV1Magic) {
  const CountMinSketch cm(100, 3, 1);
  const std::vector<uint8_t> bytes = cm.Serialize();
  uint64_t magic = 0;
  for (int i = 7; i >= 0; --i) magic = (magic << 8) | bytes[i];
  EXPECT_EQ(magic, 0x534b434d494e3031ULL);  // "SKCMIN01", v1
  const CountMinSketch cm2 =
      CountMinSketch::TryDeserialize(bytes, nullptr).value();
  EXPECT_EQ(cm2.width_mode(), WidthMode::kDivision);
}

TEST(WidthModeDeathTest, MergeAcrossModesAborts) {
  // Same width so only the mode differs: 1024 is a power of two, so the
  // pow2 sketch does not round and the geometries match exactly.
  CountMinSketch a(1024, 3, 7);
  CountMinSketch b(1024, 3, 7, WidthMode::kPow2);
  EXPECT_DEATH(a.Merge(b), "identical geometry and seed");
  CountSketch c(1024, 3, 7);
  CountSketch d(1024, 3, 7, WidthMode::kPow2);
  EXPECT_DEATH(c.Merge(d), "identical geometry and seed");
  BloomFilter e(1024, 3, 7);
  BloomFilter f(1024, 3, 7, WidthMode::kPow2);
  EXPECT_DEATH(e.Merge(f), "identical geometry and seed");
}

std::vector<uint8_t> WithWord(std::vector<uint8_t> bytes, size_t word,
                              uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[word * 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
  }
  return bytes;
}

/// The reason `Sketch::TryDeserialize` gives for rejecting `bytes`, or
/// "accepted" if it decodes.
template <typename Sketch>
std::string Rejection(const std::vector<uint8_t>& bytes) {
  std::string error;
  return Sketch::TryDeserialize(bytes, &error) ? "accepted" : error;
}

TEST(WidthModeTest, MalformedV2BuffersAreRejected) {
  CountMinSketch cm(1024, 3, 7, WidthMode::kPow2);
  const std::vector<uint8_t> good = cm.Serialize();
  // Word 4 is the mode word; anything but kPow2 (=1) is malformed.
  EXPECT_EQ(Rejection<CountMinSketch>(WithWord(good, 4, 0)),
            "invalid CountMinSketch width mode");
  EXPECT_EQ(Rejection<CountMinSketch>(WithWord(good, 4, 2)),
            "invalid CountMinSketch width mode");
  // Word 1 is the width; a v2 buffer whose width is not a power of two
  // is rejected before any counter allocation.
  EXPECT_EQ(Rejection<CountMinSketch>(WithWord(good, 1, 1000)),
            "pow2 CountMinSketch width is not a power of two");

  CountSketch cs(1024, 3, 7, WidthMode::kPow2);
  const std::vector<uint8_t> cs_good = cs.Serialize();
  EXPECT_EQ(Rejection<CountSketch>(WithWord(cs_good, 4, 0)),
            "invalid CountSketch width mode");
  EXPECT_EQ(Rejection<CountSketch>(WithWord(cs_good, 1, 1000)),
            "pow2 CountSketch width is not a power of two");

  BloomFilter bf(1024, 3, 7, WidthMode::kPow2);
  const std::vector<uint8_t> bf_good = bf.Serialize();
  EXPECT_EQ(Rejection<BloomFilter>(WithWord(bf_good, 4, 0)),
            "invalid BloomFilter width mode");
  EXPECT_EQ(Rejection<BloomFilter>(WithWord(bf_good, 1, 1000)),
            "pow2 BloomFilter bit count is not a power of two");
}

TEST(WidthModeDeathTest, InnerProductAcrossModesAborts) {
  const std::vector<StreamUpdate> stream = TestStream(11);
  CountMinSketch a(1024, 3, 7);
  CountMinSketch b(1024, 3, 7, WidthMode::kPow2);
  a.ApplyBatch(stream);
  b.ApplyBatch(stream);
  EXPECT_DEATH(a.EstimateInnerProduct(b), "identical geometry and seed");
}

}  // namespace
}  // namespace sketch
