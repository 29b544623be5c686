#include "common/byte_buffer.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/prng.h"

namespace sketch {
namespace {

TEST(ByteBufferTest, U64RoundTrip) {
  std::vector<uint8_t> buffer;
  AppendU64(0, &buffer);
  AppendU64(1, &buffer);
  AppendU64(0xdeadbeefcafef00dULL, &buffer);
  AppendU64(~0ULL, &buffer);
  EXPECT_EQ(buffer.size(), 32u);
  ByteReader reader(buffer);
  uint64_t value = 0;
  ASSERT_TRUE(reader.ReadU64(&value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(reader.ReadU64(&value));
  EXPECT_EQ(value, 1u);
  ASSERT_TRUE(reader.ReadU64(&value));
  EXPECT_EQ(value, 0xdeadbeefcafef00dULL);
  ASSERT_TRUE(reader.ReadU64(&value));
  EXPECT_EQ(value, ~0ULL);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteBufferTest, I64RoundTripNegative) {
  std::vector<uint8_t> buffer;
  AppendI64(-1, &buffer);
  AppendI64(-123456789012345LL, &buffer);
  AppendI64(42, &buffer);
  ByteReader reader(buffer);
  int64_t value = 0;
  ASSERT_TRUE(reader.ReadI64(&value));
  EXPECT_EQ(value, -1);
  ASSERT_TRUE(reader.ReadI64(&value));
  EXPECT_EQ(value, -123456789012345LL);
  ASSERT_TRUE(reader.ReadI64(&value));
  EXPECT_EQ(value, 42);
}

TEST(ByteBufferTest, CounterTablesRoundTrip) {
  const std::vector<int64_t> counters = {-3, 0, 7, INT64_MIN, INT64_MAX};
  std::vector<uint8_t> buffer;
  AppendWords(counters, &buffer);
  EXPECT_EQ(buffer.size(), counters.size() * 8);
  std::vector<int64_t> decoded(counters.size());
  ByteReader reader(buffer);
  ASSERT_TRUE(reader.ReadWords(decoded));
  EXPECT_EQ(decoded, counters);
  EXPECT_TRUE(reader.AtEnd());
}

// AppendWords and ReadWords copy whole tables on a little-endian host; the
// per-word StoreLittleEndian / LoadLittleEndian fold is their oracle.
TEST(ByteBufferTest, WordCopyMatchesTheFold) {
  Xoshiro256StarStar rng(2013);
  for (std::size_t size : {0u, 1u, 2u, 7u, 64u, 1000u}) {
    std::vector<int64_t> counters(size);
    for (int64_t& counter : counters) {
      counter = static_cast<int64_t>(rng.Next());
    }
    const int64_t extremes[] = {0, 1, -1, INT64_MIN, INT64_MAX};
    for (std::size_t i = 0; i < size && i < 5; ++i) {
      counters[i * size / 5] = extremes[i];
    }
    // One leading byte puts the table at an odd offset of the buffer.
    std::vector<uint8_t> copied = {0xab};
    AppendWords(counters, &copied);
    std::vector<uint8_t> folded(1 + 8 * size);
    folded[0] = 0xab;
    for (std::size_t i = 0; i < size; ++i) {
      StoreLittleEndian(static_cast<uint64_t>(counters[i]),
                        folded.data() + 1 + 8 * i);
    }
    ASSERT_EQ(copied, folded) << "size " << size;

    ByteReader reader(copied);
    uint8_t lead = 0;
    ASSERT_TRUE(reader.ReadU8(&lead));
    std::vector<int64_t> decoded(size, 42);
    ASSERT_TRUE(reader.ReadWords(decoded));
    EXPECT_TRUE(reader.AtEnd());
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(decoded[i], static_cast<int64_t>(LoadLittleEndian<uint64_t>(
                                folded.data() + 1 + 8 * i)))
          << "size " << size << " word " << i;
    }
  }
}

TEST(ByteBufferTest, LittleEndianLayout) {
  std::vector<uint8_t> buffer;
  AppendU64(0x0102030405060708ULL, &buffer);
  EXPECT_EQ(buffer[0], 0x08);
  EXPECT_EQ(buffer[7], 0x01);
}

TEST(ByteBufferTest, AtEndTracksPosition) {
  std::vector<uint8_t> buffer;
  AppendU64(5, &buffer);
  ByteReader reader(buffer);
  EXPECT_FALSE(reader.AtEnd());
  uint64_t value = 0;
  EXPECT_TRUE(reader.ReadU64(&value));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteBufferTest, TruncatedReadFails) {
  std::vector<uint8_t> buffer = {1, 2, 3};  // < 8 bytes
  ByteReader reader(buffer);
  uint64_t value = 0;
  EXPECT_FALSE(reader.ReadU64(&value));
  // A table longer than what remains is refused whole: nothing consumed.
  std::vector<uint8_t> two_words(16, 0);
  ByteReader short_reader(two_words);
  std::vector<uint64_t> three(3);
  EXPECT_FALSE(short_reader.ReadWords(three));
  EXPECT_EQ(short_reader.words_read(), 0u);
}

TEST(ByteBufferTest, SizeChecksRejectOverflow) {
  uint64_t product = 0;
  EXPECT_TRUE(CheckedMulU64(1ULL << 32, (1ULL << 32) - 1, &product));
  EXPECT_EQ(product, (1ULL << 32) * ((1ULL << 32) - 1));
  EXPECT_FALSE(CheckedMulU64(1ULL << 32, 1ULL << 32, &product));
  const std::vector<uint8_t> five_words(40, 0);
  EXPECT_TRUE(CheckSerializedSize(five_words, 4, 1));
  EXPECT_FALSE(CheckSerializedSize(five_words, 4, 2));
  EXPECT_FALSE(CheckSerializedSize(five_words, 4, UINT64_MAX / 8));
}

TEST(ByteBufferTest, StoreAndLoadAreLittleEndian) {
  uint8_t bytes[4] = {};
  StoreLittleEndian<uint32_t>(0x01020304u, bytes);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[3], 0x01);
  EXPECT_EQ(LoadLittleEndian<uint32_t>(bytes), 0x01020304u);
  EXPECT_EQ(LoadLittleEndian<uint16_t>(bytes), 0x0304u);
}

TEST(ByteBufferTest, LengthPrefixedReadChecksBeforeSizingItsOutput) {
  std::vector<uint8_t> buffer;
  AppendLengthPrefixed<uint16_t>(std::string("abc"), &buffer);
  ByteReader reader(buffer);
  // Over the cap: refused with the output untouched and nothing consumed.
  std::string text = "keep";
  EXPECT_FALSE(reader.ReadLengthPrefixed<uint16_t>(2, &text));
  EXPECT_EQ(text, "keep");
  EXPECT_EQ(reader.remaining(), buffer.size());
  // At the cap it reads.
  EXPECT_TRUE(reader.ReadLengthPrefixed<uint16_t>(3, &text));
  EXPECT_EQ(text, "abc");
  EXPECT_TRUE(reader.AtEnd());
  // A prefix that claims more bytes than are present is refused the same
  // way, whatever the cap.
  std::vector<uint8_t> lying;
  AppendU32(1000, &lying);
  AppendU8(7, &lying);
  ByteReader short_reader(lying);
  std::vector<uint8_t> blob;
  EXPECT_FALSE(short_reader.ReadLengthPrefixed<uint32_t>(1u << 20, &blob));
  EXPECT_TRUE(blob.empty());
  EXPECT_EQ(short_reader.remaining(), lying.size());
}

}  // namespace
}  // namespace sketch
