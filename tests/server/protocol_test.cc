// Conformance tests for the sketchwire/1 framing and message codec: every
// message type round-trips through EncodeX -> FrameDecoder -> DecodeX, and
// the incremental decoder yields identical results under any byte-level
// fragmentation of the stream (the property the fault-injection transport
// later exploits end to end).

#include "server/protocol.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
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

/// A restore frame whose payload is `payload_bytes` long (trace id
/// included when `trace_id` is nonzero), with patterned blob bytes.
std::vector<uint8_t> RestoreFrameOfSize(std::size_t payload_bytes,
                                        uint64_t trace_id) {
  RestoreRequest request;
  request.name = "big";
  request.type = SketchType::kCountSketch;
  // name (2 + 3) + type (1) + blob length (4) precede the blob.
  const std::size_t overhead = 10 + (trace_id != 0 ? kTraceIdBytes : 0);
  request.blob.resize(payload_bytes - overhead);
  for (std::size_t i = 0; i < request.blob.size(); ++i) {
    request.blob[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  }
  std::vector<uint8_t> frame = EncodeRestore(request);
  if (trace_id != 0) StampTraceId(&frame, trace_id);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + payload_bytes);
  return frame;
}

/// Drains every frame the decoder has ready into `out`; returns the
/// status that stopped the drain.
DecodeStatus DrainFrames(FrameDecoder* decoder, std::vector<Frame>* out) {
  while (true) {
    Frame frame;
    const DecodeStatus status = decoder->Next(&frame);
    if (status != DecodeStatus::kFrame) return status;
    out->push_back(std::move(frame));
  }
}

/// Frames a decoder yields for `bytes` fed whole, before any Next(): the
/// fully buffered path, which copies each payload out of the buffer.
std::vector<Frame> DecodeBuffered(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  EXPECT_EQ(DrainFrames(&decoder, &frames), DecodeStatus::kNeedMore);
  return frames;
}

// A frame larger than one window, followed by a ping in the same feed,
// split once at every offset around its header and around the window
// edge, with the frames drained between the two feeds: whether the rest
// of the frame was received in place or buffered, both frames come out
// equal to the fully buffered decode.
TEST(FrameDecoderTest, LargeFrameAtEverySplitOffsetMatchesBufferedDecode) {
  constexpr std::size_t kWindow = FrameDecoder::kWindowBytes;
  const std::vector<uint8_t> ping = EncodePing();
  // 3 windows and a bit, and just over one window (in place only when
  // the split leaves more than a window to come).
  for (const std::size_t payload_bytes : {3 * kWindow + 5, kWindow + 64}) {
    for (const uint64_t trace_id :
         {uint64_t{0}, uint64_t{0x1122334455667788}}) {
      std::vector<uint8_t> wire = RestoreFrameOfSize(payload_bytes, trace_id);
      wire.insert(wire.end(), ping.begin(), ping.end());
      const std::vector<Frame> expected = DecodeBuffered(wire);
      ASSERT_EQ(expected.size(), 2u);
      EXPECT_EQ(expected[0].trace_id, trace_id);
      EXPECT_EQ(expected[0].payload.size(),
                payload_bytes - (trace_id != 0 ? kTraceIdBytes : 0));

      std::vector<std::size_t> splits;
      for (std::size_t s = 0; s <= 80; ++s) splits.push_back(s);
      for (std::size_t s = kWindow - 16; s <= kWindow + 80; ++s) {
        splits.push_back(s);
      }
      splits.push_back(wire.size() - ping.size() - 1);
      splits.push_back(wire.size() - 1);
      for (const std::size_t split : splits) {
        SCOPED_TRACE(testing::Message() << "payload " << payload_bytes
                                        << " trace " << trace_id
                                        << " split " << split);
        FrameDecoder decoder;
        std::vector<Frame> frames;
        decoder.Feed(wire.data(), split);
        ASSERT_EQ(DrainFrames(&decoder, &frames), DecodeStatus::kNeedMore);
        decoder.Feed(wire.data() + split, wire.size() - split);
        ASSERT_EQ(DrainFrames(&decoder, &frames), DecodeStatus::kNeedMore);
        ASSERT_EQ(frames.size(), 2u);
        for (std::size_t i = 0; i < frames.size(); ++i) {
          EXPECT_EQ(frames[i].opcode, expected[i].opcode);
          EXPECT_EQ(frames[i].trace_id, expected[i].trace_id);
          EXPECT_EQ(frames[i].payload, expected[i].payload);
        }
        EXPECT_EQ(decoder.buffered_bytes(), 0u);
      }
    }
  }
}

// Small frames read a window at a time, drained after every read, as the
// event loop does: the buffer grows, moves its unread tail to the front
// and is reused, and every frame comes out whole and in order.
TEST(FrameDecoderTest, SmallFramesDrainedBetweenWindowReads) {
  std::vector<uint8_t> wire;
  std::vector<uint64_t> items;
  for (uint64_t i = 0; i < 20000; ++i) {
    PointQueryRequest request;
    request.name = std::string(1 + i % 40, 'q');
    request.item = i * 0x9E3779B97F4A7C15ULL;
    const std::vector<uint8_t> frame = EncodePointQuery(request);
    wire.insert(wire.end(), frame.begin(), frame.end());
    items.push_back(request.item);
  }
  FrameDecoder decoder;
  std::vector<Frame> frames;
  std::size_t offset = 0;
  for (std::size_t read = 0; offset < wire.size(); ++read) {
    const std::span<uint8_t> window = decoder.WriteWindow();
    ASSERT_EQ(window.size(), FrameDecoder::kWindowBytes);
    // Reads of uneven sizes, so frames straddle every read boundary.
    const std::size_t n = std::min({window.size(), wire.size() - offset,
                                    std::size_t{1000} + read * 7919 % 60000});
    std::copy_n(wire.data() + offset, n, window.data());
    decoder.Commit(n);
    offset += n;
    ASSERT_EQ(DrainFrames(&decoder, &frames), DecodeStatus::kNeedMore);
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  ASSERT_EQ(frames.size(), items.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    PointQueryRequest decoded;
    ASSERT_TRUE(DecodePointQuery(frames[i], &decoded));
    EXPECT_EQ(decoded.item, items[i]);
    EXPECT_EQ(decoded.name.size(), 1 + i % 40);
  }
}

// The zero-copy property: once the header is in, every later transport
// read of a large frame lands in the vector Next() hands out.
TEST(FrameDecoderTest, LargeFramePayloadIsTheBufferTheTransportWrote) {
  const std::vector<uint8_t> wire =
      RestoreFrameOfSize(4 * FrameDecoder::kWindowBytes, 0);
  constexpr std::size_t kFirstRead = kFrameHeaderBytes + 100;
  FrameDecoder decoder;
  Frame frame;
  decoder.Feed(wire.data(), kFirstRead);
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
  std::vector<std::pair<const uint8_t*, std::size_t>> windows;
  std::size_t offset = kFirstRead;
  while (offset < wire.size()) {
    const std::span<uint8_t> window = decoder.WriteWindow();
    ASSERT_FALSE(window.empty());
    ASSERT_LE(window.size(), FrameDecoder::kWindowBytes);
    const std::size_t n = std::min(window.size(), wire.size() - offset);
    std::copy_n(wire.data() + offset, n, window.data());
    windows.emplace_back(window.data(), offset - kFrameHeaderBytes);
    decoder.Commit(n);
    offset += n;
    EXPECT_EQ(decoder.buffered_bytes(), offset);
  }
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  ASSERT_GT(windows.size(), 1u);
  for (const auto& [data, payload_offset] : windows) {
    EXPECT_EQ(data, frame.payload.data() + payload_offset);
  }
  EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                         wire.begin() + kFrameHeaderBytes));
  // A complete payload hands the window back to the buffer: never empty.
  EXPECT_EQ(decoder.WriteWindow().size(), FrameDecoder::kWindowBytes);
}

// A maximal declared length drives neither a large window nor a large
// count: both follow the bytes that arrived.
TEST(FrameDecoderTest, MaximalDeclaredLengthKeepsTheWindowToOneStep) {
  std::vector<uint8_t> wire = {0, 0, 0, 0, 0x03, kProtocolVersion, 0, 0};
  StoreLittleEndian(kMaxFramePayloadBytes, wire.data());
  wire.resize(kFrameHeaderBytes + 100, 0xab);
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
  EXPECT_LE(decoder.WriteWindow().size(), FrameDecoder::kWindowBytes);
  EXPECT_EQ(decoder.buffered_bytes(), wire.size());
  decoder.Commit(7);
  EXPECT_EQ(decoder.buffered_bytes(), wire.size() + 7);
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kNeedMore);
}

// A bad header right after a large frame fails the stream with the same
// code and message as the fully buffered decode, after the large frame.
TEST(FrameDecoderTest, BadHeaderAfterLargeFrameFailsAsBuffered) {
  const std::vector<uint8_t> large =
      RestoreFrameOfSize(2 * FrameDecoder::kWindowBytes, 0);
  const std::vector<std::vector<uint8_t>> bad_headers = {
      {0, 0, 0, 0, 0x01, 2, 0, 0},                 // version 2
      {0, 0, 0, 0, 0x01, kProtocolVersion, 2, 0},  // unknown flag bit
      {4, 0, 0, 0, 0x01, kProtocolVersion, 1, 0},  // traced, short
      {0xff, 0xff, 0xff, 0xff, 0x01, kProtocolVersion, 0, 0},  // too large
  };
  for (const std::vector<uint8_t>& bad : bad_headers) {
    std::vector<uint8_t> wire = large;
    wire.insert(wire.end(), bad.begin(), bad.end());
    FrameDecoder buffered;
    buffered.Feed(wire.data(), wire.size());
    std::vector<Frame> expected;
    ASSERT_EQ(DrainFrames(&buffered, &expected), DecodeStatus::kBadFrame);

    FrameDecoder decoder;
    std::vector<Frame> frames;
    decoder.Feed(wire.data(), kFrameHeaderBytes + 1);
    ASSERT_EQ(DrainFrames(&decoder, &frames), DecodeStatus::kNeedMore);
    decoder.Feed(wire.data() + kFrameHeaderBytes + 1,
                 wire.size() - kFrameHeaderBytes - 1);
    ASSERT_EQ(DrainFrames(&decoder, &frames), DecodeStatus::kBadFrame);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_EQ(expected.size(), 1u);
    EXPECT_EQ(frames[0].payload, expected[0].payload);
    EXPECT_EQ(decoder.error_code(), buffered.error_code());
    EXPECT_EQ(decoder.error(), buffered.error());
    EXPECT_NE(decoder.error_code(), ErrorCode::kNone);
    // Sticky: more bytes and more calls change nothing.
    decoder.Feed(large.data(), large.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadFrame);
    EXPECT_EQ(decoder.error(), buffered.error());
  }
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
