#include "common/byte_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

}  // namespace
}  // namespace sketch
