// Adversarial deserialization tests: every sketch's TryDeserialize() must
// reject malformed buffers — returning std::nullopt with a reason, never
// aborting — BEFORE allocating counter storage from untrusted geometry.
// Three malformed classes per sketch, mirroring the fuzz driver's
// deterministic mutations:
//
//   * truncated   — a prefix of a valid buffer (header or payload cut)
//   * bit-flipped — a valid buffer with one header bit flipped (magic or a
//                   geometry word, so the payload no longer matches)
//   * inflated    — a valid buffer with extra trailing bytes
//
// Payload bit flips are deliberately NOT rejection cases: counters are
// arbitrary user data and any payload word pattern is a valid sketch state.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "sketch/stream_summary.h"

namespace sketch {
namespace {

std::vector<uint8_t> Truncated(std::vector<uint8_t> bytes, size_t keep) {
  bytes.resize(keep);
  return bytes;
}

std::vector<uint8_t> BitFlipped(std::vector<uint8_t> bytes, size_t bit) {
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  return bytes;
}

std::vector<uint8_t> Inflated(std::vector<uint8_t> bytes, size_t extra) {
  bytes.resize(bytes.size() + extra, 0xa5);
  return bytes;
}

std::vector<uint8_t> WithWord(std::vector<uint8_t> bytes, size_t word,
                              uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    bytes[word * 8 + i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return bytes;
}

/// The reason `Sketch::TryDeserialize` gives for rejecting `bytes`, or
/// "accepted" if it decodes.
template <typename Sketch>
std::string Rejection(const std::vector<uint8_t>& bytes) {
  std::string error;
  const std::optional<Sketch> sketch = Sketch::TryDeserialize(bytes, &error);
  return sketch ? "accepted" : error;
}

// Header layout (shared by all four sketches): word 0 = magic,
// words 1-2 = geometry, word 3 = seed. Bit 8*8 is the lowest bit of the
// first geometry word; flipping it breaks the geometry/payload size match.
constexpr size_t kGeometryBit = 64;
// A high bit of the first geometry word: turns the claimed size astronomical,
// exercising the overflow-checked size computation.
constexpr size_t kGeometryHighBit = 64 + 62;
// A bit inside the magic word.
constexpr size_t kMagicBit = 3;

TEST(DeserializeTest, CountMinRejectsMalformedBuffers) {
  const CountMinSketch sk(16, 3, 7);
  const std::vector<uint8_t> good = sk.Serialize();
  EXPECT_EQ(Rejection<CountMinSketch>(good), "accepted");
  EXPECT_EQ(Rejection<CountMinSketch>(Truncated(good, 24)),
            "truncated sketch buffer");
  EXPECT_EQ(Rejection<CountMinSketch>(Truncated(good, good.size() - 8)),
            "CountMinSketch buffer size does not match geometry");
  EXPECT_EQ(Rejection<CountMinSketch>(BitFlipped(good, kMagicBit)),
            "not a CountMinSketch buffer");
  EXPECT_EQ(Rejection<CountMinSketch>(BitFlipped(good, kGeometryBit)),
            "CountMinSketch buffer size does not match geometry");
  EXPECT_EQ(Rejection<CountMinSketch>(BitFlipped(good, kGeometryHighBit)),
            "CountMinSketch buffer size does not match geometry");
  EXPECT_EQ(Rejection<CountMinSketch>(Inflated(good, 8)),
            "CountMinSketch buffer size does not match geometry");
}

TEST(DeserializeTest, CountSketchRejectsMalformedBuffers) {
  const CountSketch sk(16, 3, 7);
  const std::vector<uint8_t> good = sk.Serialize();
  EXPECT_EQ(Rejection<CountSketch>(good), "accepted");
  EXPECT_EQ(Rejection<CountSketch>(Truncated(good, 0)),
            "truncated sketch buffer");
  EXPECT_EQ(Rejection<CountSketch>(Truncated(good, good.size() - 1)),
            "CountSketch buffer size does not match geometry");
  EXPECT_EQ(Rejection<CountSketch>(BitFlipped(good, kMagicBit)),
            "not a CountSketch buffer");
  EXPECT_EQ(Rejection<CountSketch>(BitFlipped(good, kGeometryBit)),
            "CountSketch buffer size does not match geometry");
  EXPECT_EQ(Rejection<CountSketch>(BitFlipped(good, kGeometryHighBit)),
            "CountSketch buffer size does not match geometry");
  EXPECT_EQ(Rejection<CountSketch>(Inflated(good, 1)),
            "CountSketch buffer size does not match geometry");
}

TEST(DeserializeTest, BloomFilterRejectsMalformedBuffers) {
  const BloomFilter filter(256, 4, 7);
  const std::vector<uint8_t> good = filter.Serialize();
  EXPECT_EQ(Rejection<BloomFilter>(good), "accepted");
  EXPECT_EQ(Rejection<BloomFilter>(Truncated(good, 31)),
            "truncated sketch buffer");
  EXPECT_EQ(Rejection<BloomFilter>(Truncated(good, good.size() - 8)),
            "BloomFilter buffer size does not match geometry");
  EXPECT_EQ(Rejection<BloomFilter>(BitFlipped(good, kMagicBit)),
            "not a BloomFilter buffer");
  // Flipping a high bit of num_bits claims an astronomically large filter.
  EXPECT_EQ(Rejection<BloomFilter>(BitFlipped(good, kGeometryHighBit)),
            "BloomFilter buffer size does not match geometry");
  EXPECT_EQ(Rejection<BloomFilter>(Inflated(good, 8)),
            "BloomFilter buffer size does not match geometry");
  // num_hashes beyond the sanity cap is rejected even with a matching size.
  std::vector<uint8_t> huge_hashes = good;
  huge_hashes[2 * 8 + 2] = 0xff;  // num_hashes word |= 0xff0000 -> > 1024
  EXPECT_EQ(Rejection<BloomFilter>(huge_hashes),
            "invalid BloomFilter hash count");
}

TEST(DeserializeTest, AmsRejectsMalformedBuffers) {
  const AmsSketch sk(32, 5, 7);
  const std::vector<uint8_t> good = sk.Serialize();
  EXPECT_EQ(Rejection<AmsSketch>(good), "accepted");
  EXPECT_EQ(Rejection<AmsSketch>(Truncated(good, 16)),
            "truncated sketch buffer");
  EXPECT_EQ(Rejection<AmsSketch>(Truncated(good, good.size() - 8)),
            "AmsSketch buffer size does not match geometry");
  EXPECT_EQ(Rejection<AmsSketch>(BitFlipped(good, kMagicBit)),
            "not an AmsSketch buffer");
  EXPECT_EQ(Rejection<AmsSketch>(BitFlipped(good, kGeometryBit)),
            "AmsSketch buffer size does not match geometry");
  // (32 + 2^62) * 5 wraps u64.
  EXPECT_EQ(Rejection<AmsSketch>(BitFlipped(good, kGeometryHighBit)),
            "AmsSketch geometry overflows");
  EXPECT_EQ(Rejection<AmsSketch>(Inflated(good, 4096)),
            "AmsSketch buffer size does not match geometry");
}

TEST(DeserializeTest, ZeroGeometryIsRejected) {
  // Hand-built buffer: valid CountMin magic, width = 0, depth = 0.
  const std::vector<uint8_t> bytes =
      WithWord(std::vector<uint8_t>(32, 0), 0, 0x534b434d494e3031ULL);
  EXPECT_EQ(Rejection<CountMinSketch>(bytes),
            "invalid CountMinSketch geometry");
}

TEST(DeserializeTest, OverflowingGeometryIsRejected) {
  // width * depth wraps u64: rejected by the checked product, not by a
  // size computed from the wrapped value.
  std::vector<uint8_t> bytes = CountMinSketch(16, 3, 7).Serialize();
  bytes = WithWord(WithWord(bytes, 1, uint64_t{1} << 32), 2,
                   uint64_t{1} << 32);
  EXPECT_EQ(Rejection<CountMinSketch>(bytes),
            "CountMinSketch geometry overflows");
}

TEST(DeserializeTest, DyadicLevelsMustMatchTheHeader) {
  const DyadicCountMin dyadic(3, 8, 4, 11);
  const std::vector<uint8_t> good = dyadic.Serialize();
  EXPECT_EQ(Rejection<DyadicCountMin>(good), "accepted");
  EXPECT_EQ(Rejection<DyadicCountMin>(Truncated(good, good.size() - 8)),
            "DyadicCountMin buffer size does not match geometry");
  // The dyadic header is 5 words; the first level's width and depth are
  // words 6 and 7. Swapping them keeps the level's size exact.
  EXPECT_EQ(Rejection<DyadicCountMin>(WithWord(WithWord(good, 6, 4), 7, 8)),
            "DyadicCountMin level geometry mismatch");
  // A level's seed is free for a standalone dyadic sketch, but must be
  // the derived one when the caller fixes the base seed.
  std::string error;
  EXPECT_TRUE(DyadicCountMin::TryDeserialize(good, &error, 11));
  EXPECT_FALSE(DyadicCountMin::TryDeserialize(good, &error, 12));
  EXPECT_EQ(error, "DyadicCountMin level seed mismatch");
}

StreamSummary::Options SmallSummaryOptions() {
  StreamSummary::Options options;
  options.log_universe = 2;
  options.width = 8;
  options.depth = 2;
  options.verify_width = 32;
  options.seed = 3;
  return options;
}

TEST(DeserializeTest, StreamSummaryRoundTripsAndChecksComponents) {
  StreamSummary summary(SmallSummaryOptions());
  for (uint64_t i = 0; i < 200; ++i) summary.Update({i % 4, 1});
  const std::vector<uint8_t> good = summary.Serialize();
  std::string error;
  const std::optional<StreamSummary> restored =
      StreamSummary::TryDeserialize(good, &error);
  ASSERT_TRUE(restored) << error;
  EXPECT_EQ(restored->Serialize(), good);
  EXPECT_EQ(restored->TotalCount(), 200);

  // Header words 6-8 are the component lengths; the verifier and AMS
  // blobs follow the dyadic one, and word 3 of each is its seed.
  const size_t verifier = 9 + good[6 * 8];
  const size_t ams = verifier + good[7 * 8];
  EXPECT_EQ(Rejection<StreamSummary>(WithWord(good, verifier + 3, 0)),
            "StreamSummary verifier seed mismatch");
  EXPECT_EQ(Rejection<StreamSummary>(WithWord(good, ams + 3, 0)),
            "StreamSummary AMS seed mismatch");
  EXPECT_EQ(Rejection<StreamSummary>(WithWord(good, 5, 4)),
            "StreamSummary verifier seed mismatch");
  EXPECT_EQ(Rejection<StreamSummary>(Inflated(good, 8)),
            "StreamSummary buffer size does not match components");
}

TEST(DeserializeTest, StreamSummaryInflatedVerifyWidthAllocatesNothing) {
  // A valid 1456-byte summary whose verify_width (header word 4) claims
  // 2^33: constructing from the header's Options first would size a
  // ~192 GiB verifier (2^33 x 3 counters) before checking any component.
  const std::vector<uint8_t> good =
      StreamSummary(SmallSummaryOptions()).Serialize();
  ASSERT_EQ(good.size(), 1456u);
  EXPECT_EQ(Rejection<StreamSummary>(WithWord(good, 4, uint64_t{1} << 33)),
            "StreamSummary verifier geometry mismatch");
}

}  // namespace
}  // namespace sketch
