// Conformance tests for the sketchwire/1 framing and message codec: every
// message type round-trips through EncodeX -> FrameDecoder -> DecodeX, and
// the incremental decoder yields identical results under any byte-level
// fragmentation of the stream (the property the fault-injection transport
// later exploits end to end).

#include "server/protocol.h"

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace sketch::server {
namespace {

/// Feeds `bytes` to a decoder in chunks of `chunk` bytes and expects
/// exactly one complete frame.
Frame DecodeOneFrame(const std::vector<uint8_t>& bytes, std::size_t chunk) {
  FrameDecoder decoder;
  Frame frame;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    const std::size_t n = std::min(chunk, bytes.size() - offset);
    decoder.Feed(bytes.data() + offset, n);
    offset += n;
  }
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

TEST(FrameDecoderTest, RoundTripsEmptyPayload) {
  const Frame frame = DecodeOneFrame(EncodePing(), /*chunk=*/1024);
  EXPECT_EQ(frame.opcode, Opcode::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameDecoderTest, SingleByteFragmentation) {
  CreateSketchRequest request;
  request.name = "fragmented";
  request.type = SketchType::kCountSketch;
  request.params = {512, 5, 77, 0, 0};
  const std::vector<uint8_t> bytes = EncodeCreateSketch(request);
  // Byte-at-a-time delivery must produce the identical frame.
  const Frame frame = DecodeOneFrame(bytes, /*chunk=*/1);
  CreateSketchRequest decoded;
  ASSERT_TRUE(DecodeCreateSketch(frame, &decoded));
  EXPECT_EQ(decoded.name, request.name);
  EXPECT_EQ(decoded.type, request.type);
  EXPECT_EQ(decoded.params, request.params);
}

TEST(FrameDecoderTest, MultipleFramesInOneFeed) {
  std::vector<uint8_t> bytes = EncodePing();
  const std::vector<uint8_t> second = EncodeListSketches();
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kPing);
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kListSketches);
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
}

TEST(FrameDecoderTest, NeedsMoreUntilPayloadComplete) {
  PointQueryRequest request;
  request.name = "q";
  request.item = 42;
  const std::vector<uint8_t> bytes = EncodePointQuery(request);
  FrameDecoder decoder;
  Frame frame;
  // Header alone is not enough once a payload is declared.
  decoder.Feed(bytes.data(), kFrameHeaderBytes);
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
  decoder.Feed(bytes.data() + kFrameHeaderBytes,
               bytes.size() - kFrameHeaderBytes - 1);
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
  decoder.Feed(bytes.data() + bytes.size() - 1, 1);
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
}

TEST(ProtocolTest, IngestRoundTrip) {
  IngestRequest request;
  request.name = "stream";
  request.updates = {{1, 5}, {2, -3}, {0xffffffffffffffffULL, 1}};
  const Frame frame = DecodeOneFrame(EncodeIngest(request), 7);
  IngestRequest decoded;
  ASSERT_TRUE(DecodeIngest(frame, &decoded));
  EXPECT_EQ(decoded.name, "stream");
  ASSERT_EQ(decoded.updates.size(), 3u);
  EXPECT_EQ(decoded.updates[0].item, 1u);
  EXPECT_EQ(decoded.updates[1].delta, -3);
  EXPECT_EQ(decoded.updates[2].item, 0xffffffffffffffffULL);
}

// A name of 1 to 8 bytes puts the updates at every payload offset
// modulo 8; each decodes to the values encoded.
TEST(ProtocolTest, IngestDecodesAtEveryPayloadAlignment) {
  IngestRequest request;
  request.updates = {{0, 0},
                     {1, -1},
                     {UINT64_MAX, INT64_MIN},
                     {0x0102030405060708ULL, INT64_MAX}};
  for (std::size_t length = 1; length <= 8; ++length) {
    request.name = std::string(length, 'n');
    IngestRequest decoded;
    ASSERT_TRUE(DecodeIngest(DecodeOneFrame(EncodeIngest(request), 64),
                             &decoded));
    EXPECT_EQ(decoded.name, request.name);
    ASSERT_EQ(decoded.updates.size(), request.updates.size());
    for (std::size_t i = 0; i < request.updates.size(); ++i) {
      EXPECT_EQ(decoded.updates[i].item, request.updates[i].item);
      EXPECT_EQ(decoded.updates[i].delta, request.updates[i].delta);
    }
  }
}

TEST(ProtocolTest, IngestSpanMatchesVectorEncoding) {
  IngestRequest request;
  request.name = "same";
  request.updates = {{9, 9}, {10, 10}};
  EXPECT_EQ(EncodeIngest(request),
            EncodeIngestSpan("same", UpdateSpan(request.updates)));
}

TEST(ProtocolTest, HeavyHittersRoundTrip) {
  HeavyHittersRequest request;
  request.name = "hh";
  request.phi = 0.03125;
  const Frame frame = DecodeOneFrame(EncodeHeavyHitters(request), 3);
  HeavyHittersRequest decoded;
  ASSERT_TRUE(DecodeHeavyHitters(frame, &decoded));
  EXPECT_EQ(decoded.name, "hh");
  EXPECT_DOUBLE_EQ(decoded.phi, 0.03125);
}

TEST(ProtocolTest, InnerProductRoundTrip) {
  InnerProductRequest request;
  request.left = "a";
  request.right = "b";
  const Frame frame = DecodeOneFrame(EncodeInnerProduct(request), 2);
  InnerProductRequest decoded;
  ASSERT_TRUE(DecodeInnerProduct(frame, &decoded));
  EXPECT_EQ(decoded.left, "a");
  EXPECT_EQ(decoded.right, "b");
}

TEST(ProtocolTest, NamedRequestsShareOneDecoder) {
  NamedRequest request;
  request.name = "snap-me";
  NamedRequest decoded;
  ASSERT_TRUE(
      DecodeNamedRequest(DecodeOneFrame(EncodeSnapshot(request), 5), &decoded));
  EXPECT_EQ(decoded.name, "snap-me");
  ASSERT_TRUE(DecodeNamedRequest(DecodeOneFrame(EncodeDropSketch(request), 5),
                                 &decoded));
  EXPECT_EQ(decoded.name, "snap-me");
}

TEST(ProtocolTest, RestoreRoundTrip) {
  RestoreRequest request;
  request.name = "rebuild";
  request.type = SketchType::kStreamSummary;
  request.blob = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  const Frame frame = DecodeOneFrame(EncodeRestore(request), 4);
  RestoreRequest decoded;
  ASSERT_TRUE(DecodeRestore(frame, &decoded));
  EXPECT_EQ(decoded.name, "rebuild");
  EXPECT_EQ(decoded.type, SketchType::kStreamSummary);
  EXPECT_EQ(decoded.blob, request.blob);
}

// The borrowing decode and the owning one are one parser: they agree on
// every field, and on every rejection.
TEST(ProtocolTest, RestoreViewAgreesWithOwningDecode) {
  RestoreRequest request;
  request.type = SketchType::kCountSketch;
  for (std::size_t length = 1; length <= 8; ++length) {
    request.name = std::string(length, 'r');
    request.blob.assign(8 * length + 3, static_cast<uint8_t>(length));
    const Frame frame = DecodeOneFrame(EncodeRestore(request), 64);
    RestoreRequestView view;
    RestoreRequest owned;
    ASSERT_TRUE(DecodeRestore(frame, &view));
    ASSERT_TRUE(DecodeRestore(frame, &owned));
    EXPECT_EQ(view.name, owned.name);
    EXPECT_EQ(view.type, owned.type);
    EXPECT_EQ(std::vector<uint8_t>(view.blob.begin(), view.blob.end()),
              owned.blob);
    EXPECT_EQ(owned.blob, request.blob);
    // The view points into the payload: after the name, type and length.
    EXPECT_EQ(view.blob.data(), frame.payload.data() + 2 + length + 1 + 4);
    // A payload one byte short of its blob is refused by both.
    Frame truncated = frame;
    truncated.payload.pop_back();
    EXPECT_FALSE(DecodeRestore(truncated, &view));
    EXPECT_FALSE(DecodeRestore(truncated, &owned));
  }
}

TEST(ProtocolTest, AppenderBlobMatchesBlobResponse) {
  for (std::size_t size : {0u, 1u, 7u, 4096u}) {
    BlobResponse response;
    response.bytes.assign(size, 0x5a);
    if (size > 0) response.bytes.back() = 0x01;
    const auto append = [&](std::vector<uint8_t>* out) {
      out->insert(out->end(), response.bytes.begin(), response.bytes.end());
    };
    // The hint sizes an allocation and nothing else.
    EXPECT_EQ(EncodeBlob(size, append), EncodeBlob(response));
    EXPECT_EQ(EncodeBlob(0, append), EncodeBlob(response));
    EXPECT_EQ(EncodeBlob(2 * size + 100, append), EncodeBlob(response));
  }
}

TEST(ProtocolTest, ResponseRoundTrips) {
  {
    ErrorResponse response;
    response.code = ErrorCode::kNoSuchSketch;
    response.message = "gone";
    ErrorResponse decoded;
    ASSERT_TRUE(
        DecodeError(DecodeOneFrame(EncodeError(response), 3), &decoded));
    EXPECT_EQ(decoded.code, ErrorCode::kNoSuchSketch);
    EXPECT_EQ(decoded.message, "gone");
  }
  {
    PointValueResponse response;
    response.estimate = -77;
    response.error_bound = 12.5;
    response.bound_kind = BoundKind::kL2;
    PointValueResponse decoded;
    ASSERT_TRUE(DecodePointValue(DecodeOneFrame(EncodePointValue(response), 6),
                                 &decoded));
    EXPECT_EQ(decoded.estimate, -77);
    EXPECT_DOUBLE_EQ(decoded.error_bound, 12.5);
    EXPECT_EQ(decoded.bound_kind, BoundKind::kL2);
  }
  {
    ItemsResponse response;
    response.items = {3, 1, 4, 1, 5};
    ItemsResponse decoded;
    ASSERT_TRUE(
        DecodeItems(DecodeOneFrame(EncodeItems(response), 9), &decoded));
    EXPECT_EQ(decoded.items, response.items);
  }
  {
    BlobResponse response;
    response.bytes = {1, 2, 3};
    BlobResponse decoded;
    ASSERT_TRUE(DecodeBlob(DecodeOneFrame(EncodeBlob(response), 2), &decoded));
    EXPECT_EQ(decoded.bytes, response.bytes);
  }
  {
    TextResponse response;
    response.text = "{\"sketches\":[]}";
    TextResponse decoded;
    ASSERT_TRUE(DecodeText(DecodeOneFrame(EncodeText(response), 5), &decoded));
    EXPECT_EQ(decoded.text, response.text);
  }
  {
    IngestAckResponse response;
    response.accepted = 8192;
    IngestAckResponse decoded;
    ASSERT_TRUE(DecodeIngestAck(DecodeOneFrame(EncodeIngestAck(response), 1),
                                &decoded));
    EXPECT_EQ(decoded.accepted, 8192u);
  }
}

TEST(ProtocolTest, DecodeRejectsWrongOpcode) {
  // A perfectly well-formed frame must still be rejected by a typed
  // decoder for a different message.
  const Frame frame = DecodeOneFrame(EncodePing(), 100);
  PointQueryRequest point;
  EXPECT_FALSE(DecodePointQuery(frame, &point));
  IngestRequest ingest;
  EXPECT_FALSE(DecodeIngest(frame, &ingest));
}

TEST(PayloadReaderTest, PrimitivesAreLittleEndianAndBoundsChecked) {
  std::vector<uint8_t> bytes;
  AppendU8(0xab, &bytes);
  AppendU16(0x1234, &bytes);
  AppendU32(0xdeadbeef, &bytes);
  AppendU64(0x0123456789abcdefULL, &bytes);
  AppendI64(-5, &bytes);
  AppendF64(0.5, &bytes);
  // Spot-check the wire layout: u16 0x1234 is 34 12 on the wire.
  EXPECT_EQ(bytes[1], 0x34);
  EXPECT_EQ(bytes[2], 0x12);
  ByteReader reader(bytes);
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64 = 0.0;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.ReadU16(&u16));
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.ReadI64(&i64));
  EXPECT_TRUE(reader.ReadF64(&f64));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -5);
  EXPECT_DOUBLE_EQ(f64, 0.5);
  EXPECT_TRUE(reader.AtEnd());
  // Reading past the end fails without moving the cursor.
  EXPECT_FALSE(reader.ReadU8(&u8));
}

TEST(PayloadReaderTest, StringAndBytesRoundTrip) {
  std::vector<uint8_t> bytes;
  AppendName(std::string(kMaxNameBytes, 'n'), &bytes);
  AppendLengthPrefixed<uint32_t>(std::vector<uint8_t>{9, 8, 7}, &bytes);
  ByteReader reader(bytes);
  std::string name;
  std::vector<uint8_t> blob;
  EXPECT_TRUE(TryReadName(&reader, &name));
  EXPECT_EQ(name.size(), kMaxNameBytes);
  EXPECT_TRUE(reader.ReadLengthPrefixed<uint32_t>(16, &blob));
  EXPECT_EQ(blob, (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ProtocolTest, OpcodeNamesCoverRequestRange) {
  EXPECT_TRUE(IsKnownRequestOpcode(static_cast<uint8_t>(Opcode::kPing)));
  EXPECT_TRUE(IsKnownRequestOpcode(static_cast<uint8_t>(Opcode::kShutdown)));
  EXPECT_FALSE(IsKnownRequestOpcode(0x00));
  EXPECT_FALSE(IsKnownRequestOpcode(0x7f));
  EXPECT_FALSE(IsKnownRequestOpcode(static_cast<uint8_t>(Opcode::kOk)));
  EXPECT_STREQ(OpcodeName(Opcode::kIngest), "Ingest");
  EXPECT_STREQ(SketchTypeName(SketchType::kBloom), "Bloom");
}

}  // namespace
}  // namespace sketch::server
