// Rejection and death tests for the server's untrusted-input surface:
// hostile frame headers (length overflow, bad version, reserved bits),
// malformed payloads (truncated messages, lying length prefixes, trailing
// bytes), and service-level refusals (unknown opcode, missing sketch,
// geometry mismatch, malformed blobs). Every one must produce a kBadFrame
// or kError — never an abort and never an allocation driven by the
// declared length.

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "server/protocol.h"
#include "server/sketch_service.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/stream_summary.h"
#include "sketch/width_mode.h"

namespace sketch::server {
namespace {

std::vector<uint8_t> FrameHeader(uint32_t payload_length, uint8_t opcode,
                                 uint8_t version, uint16_t reserved) {
  std::vector<uint8_t> header;
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<uint8_t>(payload_length >> shift));
  }
  header.push_back(opcode);
  header.push_back(version);
  header.push_back(static_cast<uint8_t>(reserved));
  header.push_back(static_cast<uint8_t>(reserved >> 8));
  return header;
}

ErrorResponse HandleExpectingError(SketchService* service,
                                   const std::vector<uint8_t>& frame_bytes) {
  FrameDecoder decoder;
  decoder.Feed(frame_bytes.data(), frame_bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  Frame response_frame;
  const std::vector<uint8_t> response = service->HandleFrame(frame);
  FrameDecoder response_decoder;
  response_decoder.Feed(response.data(), response.size());
  EXPECT_EQ(response_decoder.Next(&response_frame), DecodeStatus::kFrame);
  ErrorResponse error;
  EXPECT_TRUE(DecodeError(response_frame, &error))
      << "expected a kError response, got "
      << OpcodeName(response_frame.opcode);
  return error;
}

// --- Framing violations ---------------------------------------------------

TEST(FramingRejectionTest, LengthOverflowIsRejectedBeforeBuffering) {
  // Declared length u32::max: the decoder must fail from the header alone
  // (only 8 bytes fed) — buffering or allocating the claimed 4 GiB first
  // would be the vulnerability SL007 lints against.
  const std::vector<uint8_t> header =
      FrameHeader(std::numeric_limits<uint32_t>::max(),
                  static_cast<uint8_t>(Opcode::kIngest), kProtocolVersion, 0);
  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadFrame);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kFrameTooLarge);
}

TEST(FramingRejectionTest, JustOverTheCapIsRejectedAtTheCapNot) {
  FrameDecoder decoder;
  const std::vector<uint8_t> over = FrameHeader(
      kMaxFramePayloadBytes + 1, static_cast<uint8_t>(Opcode::kPing),
      kProtocolVersion, 0);
  decoder.Feed(over.data(), over.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadFrame);
  // Exactly at the cap the header itself is fine (the payload just never
  // arrives here).
  FrameDecoder at_cap;
  const std::vector<uint8_t> exact = FrameHeader(
      kMaxFramePayloadBytes, static_cast<uint8_t>(Opcode::kPing),
      kProtocolVersion, 0);
  at_cap.Feed(exact.data(), exact.size());
  EXPECT_EQ(at_cap.Next(&frame), DecodeStatus::kNeedMore);
}

TEST(FramingRejectionTest, WrongVersionKillsTheStream) {
  const std::vector<uint8_t> header = FrameHeader(
      0, static_cast<uint8_t>(Opcode::kPing), kProtocolVersion + 1, 0);
  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadFrame);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kBadFrameHeader);
  // The failure is sticky: the stream cannot be resynchronized.
  const std::vector<uint8_t> good = EncodePing();
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadFrame);
}

TEST(FramingRejectionTest, ReservedBitsMustBeZero) {
  const std::vector<uint8_t> header = FrameHeader(
      0, static_cast<uint8_t>(Opcode::kPing), kProtocolVersion, 0x8000);
  FrameDecoder decoder;
  decoder.Feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kBadFrame);
  EXPECT_EQ(decoder.error_code(), ErrorCode::kBadFrameHeader);
}

// --- Payload malformations ------------------------------------------------

TEST(PayloadRejectionTest, ZeroLengthFrameForPayloadOpcode) {
  // A zero-length Ingest frame is structurally a valid frame but an
  // invalid message: the decoder hands it over, the typed decode refuses.
  SketchService service({});
  const ErrorResponse error = HandleExpectingError(
      &service, FrameHeader(0, static_cast<uint8_t>(Opcode::kIngest),
                            kProtocolVersion, 0));
  EXPECT_EQ(error.code, ErrorCode::kMalformedPayload);
}

TEST(PayloadRejectionTest, IngestCountLyingAboutAvailableBytes) {
  // Declared update count of 1000 with bytes for none: DecodeIngest must
  // reject from the length check, before sizing its output vector.
  Frame frame;
  frame.opcode = Opcode::kIngest;
  AppendName("victim", &frame.payload);
  AppendU32(1000, &frame.payload);
  IngestRequest request;
  EXPECT_FALSE(DecodeIngest(frame, &request));
  EXPECT_TRUE(request.updates.empty());
}

TEST(PayloadRejectionTest, IngestCountAboveBatchCap) {
  Frame frame;
  frame.opcode = Opcode::kIngest;
  AppendName("victim", &frame.payload);
  AppendU32(kMaxBatchUpdates + 1, &frame.payload);
  IngestRequest request;
  EXPECT_FALSE(DecodeIngest(frame, &request));
}

TEST(PayloadRejectionTest, StringLengthPastEndOfPayload) {
  std::vector<uint8_t> payload;
  AppendU16(200, &payload);  // claims 200 name bytes; none follow
  ByteReader reader(payload);
  std::string name;
  EXPECT_FALSE(TryReadName(&reader, &name));
}

TEST(PayloadRejectionTest, TrailingBytesRejected) {
  PointQueryRequest request;
  request.name = "x";
  request.item = 1;
  std::vector<uint8_t> bytes = EncodePointQuery(request);
  bytes.push_back(0);  // smuggle one extra payload byte
  bytes[0] = static_cast<uint8_t>(bytes[0] + 1);  // fix up declared length
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  PointQueryRequest decoded;
  EXPECT_FALSE(DecodePointQuery(frame, &decoded));
}

// --- Service-level refusals -----------------------------------------------

TEST(ServiceRejectionTest, UnknownOpcode) {
  SketchService service({});
  const ErrorResponse error = HandleExpectingError(
      &service, FrameHeader(0, 0x7f, kProtocolVersion, 0));
  EXPECT_EQ(error.code, ErrorCode::kUnknownOpcode);
}

TEST(ServiceRejectionTest, ResponseOpcodeAsRequest) {
  SketchService service({});
  const ErrorResponse error = HandleExpectingError(
      &service, FrameHeader(0, static_cast<uint8_t>(Opcode::kPong),
                            kProtocolVersion, 0));
  EXPECT_EQ(error.code, ErrorCode::kUnknownOpcode);
}

TEST(ServiceRejectionTest, QueryAgainstNonexistentSketch) {
  SketchService service({});
  PointQueryRequest request;
  request.name = "ghost";
  request.item = 1;
  const ErrorResponse error =
      HandleExpectingError(&service, EncodePointQuery(request));
  EXPECT_EQ(error.code, ErrorCode::kNoSuchSketch);
}

TEST(ServiceRejectionTest, InnerProductGeometryMismatch) {
  SketchService service({});
  auto handle = [&service](const std::vector<uint8_t>& bytes) {
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
    return service.HandleFrame(frame);
  };
  CreateSketchRequest a;
  a.name = "a";
  a.type = SketchType::kCountMin;
  a.params = {1024, 4, 1, 0, 0};
  CreateSketchRequest b = a;
  b.name = "b";
  b.params = {2048, 4, 1, 0, 0};  // different width
  handle(EncodeCreateSketch(a));
  handle(EncodeCreateSketch(b));
  InnerProductRequest request;
  request.left = "a";
  request.right = "b";
  const ErrorResponse error =
      HandleExpectingError(&service, EncodeInnerProduct(request));
  EXPECT_EQ(error.code, ErrorCode::kGeometryMismatch);
}

TEST(ServiceRejectionTest, CreateWithBadGeometry) {
  SketchService service({});
  CreateSketchRequest request;
  request.name = "huge";
  request.type = SketchType::kCountMin;
  request.params = {kMaxSketchCounters + 1, 1, 1, 0, 0};
  const ErrorResponse error =
      HandleExpectingError(&service, EncodeCreateSketch(request));
  EXPECT_EQ(error.code, ErrorCode::kBadGeometry);
  EXPECT_EQ(service.sketch_count(), 0u);
}

TEST(ServiceRejectionTest, CreateWithOverflowingGeometry) {
  SketchService service({});
  CreateSketchRequest request;
  request.name = "overflow";
  request.type = SketchType::kCountSketch;
  request.params = {std::numeric_limits<uint64_t>::max(), 2, 1, 0, 0};
  const ErrorResponse error =
      HandleExpectingError(&service, EncodeCreateSketch(request));
  EXPECT_EQ(error.code, ErrorCode::kBadGeometry);
}

/// Words of per-row state a create charges beyond the counters: what a
/// one-row, one-counter `Sketch` holds past its object and its counter.
template <typename Sketch>
uint64_t RowWords() {
  const Sketch one_row(1, 1, 0);
  const uint64_t extra =
      one_row.MemoryFootprintBytes() - sizeof(Sketch) - sizeof(int64_t);
  return (extra + 7) / 8;
}

/// kNone when the create succeeds, else the error code it got.
ErrorCode CreateCode(SketchService* service, const std::string& name,
                     SketchType type, const std::array<uint64_t, 5>& params) {
  CreateSketchRequest request;
  request.name = name;
  request.type = type;
  request.params = params;
  const std::vector<uint8_t> bytes = EncodeCreateSketch(request);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  const std::vector<uint8_t> response = service->HandleFrame(frame);
  if (response == EncodeOk()) return ErrorCode::kNone;
  FrameDecoder response_decoder;
  response_decoder.Feed(response.data(), response.size());
  Frame response_frame;
  EXPECT_EQ(response_decoder.Next(&response_frame), DecodeStatus::kFrame);
  ErrorResponse error;
  EXPECT_TRUE(DecodeError(response_frame, &error));
  return error.code;
}

TEST(ServiceRejectionTest, DeepNarrowCreateIsChargedForItsHashers) {
  // Width 1 at a depth that fits the counter budget alone allocates one
  // hasher per row, dozens of times the counters' size, so the create
  // budget charges (width + per-row words) per row.
  SketchService service({});
  const uint64_t cm_depth = kMaxSketchCounters / (1 + RowWords<CountMinSketch>());
  EXPECT_EQ(CreateCode(&service, "cm", SketchType::kCountMin,
                       {1, kMaxSketchCounters, 1, 0, 0}),
            ErrorCode::kBadGeometry);
  EXPECT_EQ(CreateCode(&service, "cm", SketchType::kCountMin,
                       {1, cm_depth + 1, 1, 0, 0}),
            ErrorCode::kBadGeometry);
  EXPECT_EQ(CreateCode(&service, "cm", SketchType::kCountMin,
                       {1, cm_depth, 1, 0, 0}),
            ErrorCode::kNone);

  // Count-Sketch rows carry a bucket hasher and a sign hasher.
  const uint64_t cs_depth = kMaxSketchCounters / (1 + RowWords<CountSketch>());
  EXPECT_LT(cs_depth, cm_depth);
  EXPECT_EQ(CreateCode(&service, "cs", SketchType::kCountSketch,
                       {1, cs_depth + 1, 1, 0, 0}),
            ErrorCode::kBadGeometry);
  EXPECT_EQ(CreateCode(&service, "cs", SketchType::kCountSketch,
                       {1, cs_depth, 1, 0, 0}),
            ErrorCode::kNone);

  // A StreamSummary's 40 dyadic levels of 12000 one-counter rows fit the
  // counter budget (504002 counters in all) but not their hashers.
  EXPECT_EQ(CreateCode(&service, "summary", SketchType::kStreamSummary,
                       {40, 1, 12000, 1, 1}),
            ErrorCode::kBadGeometry);
  EXPECT_EQ(service.sketch_count(), 2u);
}

TEST(ServiceRejectionTest, ShardedCreateIsChargedForEveryTable) {
  // A sharded create allocates one width x depth table, whatever its
  // shard count, so it meets the flat CountMin boundary row for row.
  SketchService service({});
  const uint64_t depth =
      kMaxSketchCounters / (1024 + RowWords<CountMinSketch>());
  for (const uint64_t shards : {1, 4, 256}) {
    SCOPED_TRACE(shards);
    EXPECT_EQ(CreateCode(&service, "sharded", SketchType::kShardedCountMin,
                         {1024, depth + 1, 1, shards, 0}),
              ErrorCode::kBadGeometry);
    EXPECT_EQ(CreateCode(&service, "flat", SketchType::kCountMin,
                         {1024, depth + 1, 1, 0, 0}),
              ErrorCode::kBadGeometry);
  }
  EXPECT_EQ(CreateCode(&service, "sharded", SketchType::kShardedCountMin,
                       {1024, depth, 1, 256, 0}),
            ErrorCode::kNone);
  EXPECT_EQ(CreateCode(&service, "flat", SketchType::kCountMin,
                       {1024, depth, 1, 0, 0}),
            ErrorCode::kNone);
  // The shard count is still checked: 1 to 256.
  for (const uint64_t shards : {0, 257}) {
    EXPECT_EQ(CreateCode(&service, "bad-shards", SketchType::kShardedCountMin,
                         {64, 2, 1, shards, 0}),
              ErrorCode::kBadGeometry)
        << shards;
  }
  EXPECT_EQ(service.sketch_count(), 2u);
}

TEST(ServiceRejectionTest, RestoreRejectsTruncatedBlob) {
  SketchService service({});
  CountMinSketch sketch(64, 3, 5);
  const std::vector<uint8_t> full = sketch.Serialize();
  RestoreRequest request;
  request.name = "truncated";
  request.type = SketchType::kCountMin;
  // Everything but the last counter word.
  request.blob.assign(full.begin(), full.end() - 8);
  const ErrorResponse error =
      HandleExpectingError(&service, EncodeRestore(request));
  EXPECT_EQ(error.code, ErrorCode::kBadBlob);
  EXPECT_EQ(service.sketch_count(), 0u);
}

TEST(ServiceRejectionTest, RestoreRejectsTypeConfusedBlob) {
  // A valid CountMin blob presented as a CountSketch must fail on the
  // magic check, not construct a confused sketch.
  SketchService service({});
  CountMinSketch sketch(64, 3, 5);
  RestoreRequest request;
  request.name = "confused";
  request.type = SketchType::kCountSketch;
  request.blob = sketch.Serialize();
  const ErrorResponse error =
      HandleExpectingError(&service, EncodeRestore(request));
  EXPECT_EQ(error.code, ErrorCode::kBadBlob);
}

TEST(ServiceRejectionTest, HeavyHittersPhiOutOfRange) {
  SketchService service({});
  HeavyHittersRequest request;
  request.name = "any";
  request.phi = 1.5;
  const ErrorResponse error =
      HandleExpectingError(&service, EncodeHeavyHitters(request));
  EXPECT_EQ(error.code, ErrorCode::kMalformedPayload);
}

// --- Restore of malformed blobs ------------------------------------------

uint64_t WordAt(const std::vector<uint8_t>& blob, std::size_t word) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = value << 8 | blob[word * 8 + i];
  return value;
}

std::vector<uint8_t> WithWord(std::vector<uint8_t> blob, std::size_t word,
                              uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    blob[word * 8 + i] = static_cast<uint8_t>(value >> (8 * i));
  }
  return blob;
}

std::vector<uint8_t> Resized(std::vector<uint8_t> blob, std::size_t size) {
  blob.resize(size, 0xa5);
  return blob;
}

std::vector<uint8_t> BitFlipped(std::vector<uint8_t> blob, std::size_t bit) {
  blob[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  return blob;
}

StreamSummary::Options SummaryOptions() {
  StreamSummary::Options options;
  options.log_universe = 4;
  options.width = 8;
  options.depth = 4;
  options.verify_width = 16;
  options.seed = 5;
  return options;
}

/// First word of each StreamSummary component: the 9-word header is
/// followed by the dyadic, verifier and AMS blobs, whose word lengths sit
/// in header words 6-8.
std::size_t SummaryVerifierWord(const std::vector<uint8_t>& blob) {
  return 9 + WordAt(blob, 6);
}
std::size_t SummaryAmsWord(const std::vector<uint8_t>& blob) {
  return SummaryVerifierWord(blob) + WordAt(blob, 7);
}

struct MalformedBlob {
  std::string label;
  SketchType type;
  std::vector<uint8_t> blob;
};

/// The blob every family serves as its snapshot (a sharded CountMin
/// snapshots its collapsed CountMin state).
std::vector<uint8_t> ValidBlob(SketchType type) {
  switch (type) {
    case SketchType::kCountMin:
    case SketchType::kShardedCountMin:
      return CountMinSketch(64, 3, 5).Serialize();
    case SketchType::kCountSketch:
      return CountSketch(64, 3, 5).Serialize();
    case SketchType::kBloom:
      return BloomFilter(256, 4, 5).Serialize();
    case SketchType::kStreamSummary:
      return StreamSummary(SummaryOptions()).Serialize();
  }
  return {};
}

/// A well-formed blob one counter past kMaxSketchCounters (and still
/// inside one frame).
std::vector<uint8_t> OverBudgetBlob(SketchType type) {
  switch (type) {
    case SketchType::kCountMin:
    case SketchType::kShardedCountMin:
      return CountMinSketch(1024, 513, 5).Serialize();
    case SketchType::kCountSketch:
      return CountSketch(1024, 513, 5).Serialize();
    case SketchType::kBloom:
      return BloomFilter(64 * (kMaxSketchCounters + 1), 1, 5).Serialize();
    case SketchType::kStreamSummary: {
      // 2 * 2^17 dyadic + 2^17 AMS + (2^17 + 1) verifier counters.
      StreamSummary::Options options;
      options.log_universe = 2;
      options.width = 1 << 17;
      options.depth = 1;
      options.verify_width = (1 << 17) + 1;
      return StreamSummary(options).Serialize();
    }
  }
  return {};
}

std::vector<MalformedBlob> MalformedBlobs() {
  const SketchType kTypes[] = {
      SketchType::kCountMin, SketchType::kCountSketch, SketchType::kBloom,
      SketchType::kStreamSummary, SketchType::kShardedCountMin};
  std::vector<MalformedBlob> cases;
  for (SketchType type : kTypes) {
    const std::string name = SketchTypeName(type);
    const std::vector<uint8_t> good = ValidBlob(type);
    cases.push_back({name + " empty", type, {}});
    cases.push_back({name + " non-word length", type,
                     Resized(good, good.size() - 3)});
    cases.push_back({name + " truncated", type,
                     Resized(good, good.size() - 8)});
    cases.push_back({name + " magic bit flip", type, BitFlipped(good, 3)});
    // Bit 64 is the low bit of the first geometry word.
    cases.push_back({name + " geometry bit flip", type,
                     BitFlipped(good, 64)});
    cases.push_back({name + " inflated", type,
                     Resized(good, good.size() + 8)});
    cases.push_back({name + " over the counter budget", type,
                     OverBudgetBlob(type)});
  }
  // A CountMin blob presented as another family fails on the magic.
  cases.push_back({"CountMin blob as CountSketch", SketchType::kCountSketch,
                   ValidBlob(SketchType::kCountMin)});

  // v2 (pow2) layouts: header word 4 is the width-mode word, and the
  // width must be a power of two. 48 * 4 == 64 * 3 keeps the size exact,
  // and 250 bits still fill four words, so only the pow2 rule rejects.
  const std::vector<uint8_t> cm_pow2 =
      CountMinSketch(64, 3, 5, WidthMode::kPow2).Serialize();
  const std::vector<uint8_t> cs_pow2 =
      CountSketch(64, 3, 5, WidthMode::kPow2).Serialize();
  const std::vector<uint8_t> bloom_pow2 =
      BloomFilter(256, 4, 5, WidthMode::kPow2).Serialize();
  for (SketchType type :
       {SketchType::kCountMin, SketchType::kShardedCountMin}) {
    const std::string name = SketchTypeName(type);
    cases.push_back({name + " bad v2 mode word", type,
                     WithWord(cm_pow2, 4, 2)});
    cases.push_back({name + " pow2 width not a power of two", type,
                     WithWord(WithWord(cm_pow2, 1, 48), 2, 4)});
  }
  cases.push_back({"CountSketch bad v2 mode word", SketchType::kCountSketch,
                   WithWord(cs_pow2, 4, 0)});
  cases.push_back({"CountSketch pow2 width not a power of two",
                   SketchType::kCountSketch,
                   WithWord(WithWord(cs_pow2, 1, 48), 2, 4)});
  cases.push_back({"Bloom bad v2 mode word", SketchType::kBloom,
                   WithWord(bloom_pow2, 4, 2)});
  cases.push_back({"Bloom pow2 bit count not a power of two",
                   SketchType::kBloom, WithWord(bloom_pow2, 1, 250)});

  // StreamSummary components must match the serialized Options: the
  // dyadic level geometry (word 9 starts the dyadic blob, whose first
  // level's width and depth are words 15 and 16), and the verifier and
  // AMS seeds the Options derive (word 3 of each component).
  const std::vector<uint8_t> summary =
      ValidBlob(SketchType::kStreamSummary);
  cases.push_back({"StreamSummary dyadic level geometry differs from header",
                   SketchType::kStreamSummary,
                   WithWord(WithWord(summary, 15, 4), 16, 8)});
  const std::size_t verifier = SummaryVerifierWord(summary);
  const std::size_t ams = SummaryAmsWord(summary);
  cases.push_back({"StreamSummary verifier seed differs from Options",
                   SketchType::kStreamSummary,
                   WithWord(summary, verifier + 3,
                            WordAt(summary, verifier + 3) ^ 1)});
  cases.push_back({"StreamSummary AMS seed differs from Options",
                   SketchType::kStreamSummary,
                   WithWord(summary, ams + 3, WordAt(summary, ams + 3) ^ 1)});
  // Options word 4 is verify_width: 2^33 claims a ~192 GiB verifier.
  cases.push_back({"StreamSummary verify_width inflated",
                   SketchType::kStreamSummary,
                   WithWord(summary, 4, uint64_t{1} << 33)});
  return cases;
}

TEST(ServiceRejectionTest, RestoreRejectsEveryMalformedBlob) {
  SketchService service({});
  RestoreRequest existing;
  existing.name = "existing";
  existing.type = SketchType::kCountMin;
  existing.blob = ValidBlob(SketchType::kCountMin);
  FrameDecoder decoder;
  const std::vector<uint8_t> restore = EncodeRestore(existing);
  decoder.Feed(restore.data(), restore.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  ASSERT_EQ(service.HandleFrame(frame), EncodeOk());
  ASSERT_EQ(service.sketch_count(), 1u);

  int index = 0;
  for (const MalformedBlob& c : MalformedBlobs()) {
    SCOPED_TRACE(c.label);
    RestoreRequest request;
    request.name = "malformed-" + std::to_string(index++);
    request.type = c.type;
    request.blob = c.blob;
    const ErrorResponse error =
        HandleExpectingError(&service, EncodeRestore(request));
    EXPECT_EQ(error.code, ErrorCode::kBadBlob) << error.message;
    EXPECT_EQ(service.sketch_count(), 1u);
  }
}

// --- Blob validation at the budget and word boundaries --------------------

ErrorResponse RestoreExpectingError(SketchService* service, SketchType type,
                                    std::vector<uint8_t> blob) {
  RestoreRequest request;
  request.name = "blob";
  request.type = type;
  request.blob = std::move(blob);
  return HandleExpectingError(service, EncodeRestore(request));
}

/// True when restoring `blob` as `type` under `name` succeeds.
bool Restores(SketchService* service, const std::string& name,
              SketchType type, std::vector<uint8_t> blob) {
  RestoreRequest request;
  request.name = name;
  request.type = type;
  request.blob = std::move(blob);
  const std::vector<uint8_t> bytes = EncodeRestore(request);
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  return service->HandleFrame(frame) == EncodeOk();
}

/// Expects restoring `blob` as `type` to be refused for the budget.
void ExpectOverBudget(SketchService* service, SketchType type,
                      std::vector<uint8_t> blob) {
  const ErrorResponse error =
      RestoreExpectingError(service, type, std::move(blob));
  EXPECT_EQ(error.code, ErrorCode::kBadBlob);
  EXPECT_NE(error.message.find("counter budget"), std::string::npos)
      << error.message;
}

TEST(BlobCheckTest, RejectsCounterBudgetOverrun) {
  // A restore is charged by the create rule: the deepest width-1024
  // CountMin a create accepts restores; one more row is refused after the
  // decode, with the budget named in the message.
  SketchService service({});
  const uint64_t depth =
      kMaxSketchCounters / (1024 + RowWords<CountMinSketch>());
  ASSERT_EQ(CreateCode(&service, "created", SketchType::kCountMin,
                       {1024, depth, 9, 0, 0}),
            ErrorCode::kNone);
  ASSERT_EQ(CreateCode(&service, "deeper", SketchType::kCountMin,
                       {1024, depth + 1, 9, 0, 0}),
            ErrorCode::kBadGeometry);
  EXPECT_TRUE(Restores(&service, "at-budget", SketchType::kCountMin,
                       CountMinSketch(1024, depth, 9).Serialize()));
  ExpectOverBudget(&service, SketchType::kCountMin,
                   CountMinSketch(1024, depth + 1, 9).Serialize());
  EXPECT_EQ(service.sketch_count(), 2u);
}

TEST(BlobCheckTest, RejectsDeepNarrowBlob) {
  // One more width-1 row than a create accepts: its counters fit the
  // budget many times over, its per-row hashers do not.
  SketchService service({});
  const uint64_t depth = kMaxSketchCounters / (1 + RowWords<CountMinSketch>());
  EXPECT_TRUE(Restores(&service, "at-budget", SketchType::kCountMin,
                       CountMinSketch(1, depth, 9).Serialize()));
  ExpectOverBudget(&service, SketchType::kCountMin,
                   CountMinSketch(1, depth + 1, 9).Serialize());
  EXPECT_EQ(service.sketch_count(), 1u);
}

TEST(BlobCheckTest, ChargesShardedRestoreForEveryTable) {
  // A kShardedCountMin restore is a CountMin restore: the same blob
  // restores as both types, or is refused as both.
  SketchService service({});
  const uint64_t depth =
      kMaxSketchCounters / (1024 + RowWords<CountMinSketch>());
  for (const SketchType type :
       {SketchType::kCountMin, SketchType::kShardedCountMin}) {
    SCOPED_TRACE(SketchTypeName(type));
    EXPECT_TRUE(Restores(&service, SketchTypeName(type), type,
                         CountMinSketch(1024, depth, 9).Serialize()));
    ExpectOverBudget(&service, type,
                     CountMinSketch(1024, depth + 1, 9).Serialize());
  }
  EXPECT_EQ(service.sketch_count(), 2u);
}

TEST(BlobCheckTest, RejectsNonWordLength) {
  SketchService service({});
  EXPECT_EQ(
      RestoreExpectingError(&service, SketchType::kCountMin, {1, 2, 3}).code,
      ErrorCode::kBadBlob);
  EXPECT_EQ(RestoreExpectingError(&service, SketchType::kCountMin, {}).code,
            ErrorCode::kBadBlob);
  EXPECT_EQ(service.sketch_count(), 0u);
}

// --- Encode-side contract (death) -----------------------------------------

using ProtocolDeathTest = ::testing::Test;

TEST(ProtocolDeathTest, OversizedNameAborts) {
  // Encode-side violations are programming errors in this process, so
  // they CHECK instead of returning a status.
  std::vector<uint8_t> payload;
  EXPECT_DEATH(AppendName(std::string(kMaxNameBytes + 1, 'x'), &payload),
               "kMaxNameBytes");
}

TEST(ProtocolDeathTest, OversizedFrameAborts) {
  const std::vector<uint8_t> payload(kMaxFramePayloadBytes + 1, 0);
  EXPECT_DEATH(EncodeFrame(Opcode::kBlob, payload),
               "kMaxFramePayloadBytes");
}

}  // namespace
}  // namespace sketch::server
