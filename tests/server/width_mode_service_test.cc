// Width-mode plumbing through the service: the create-request mode word
// (params[3], or params[4] for sharded) selects WidthMode::kPow2, the
// rounded width feeds the error bounds and the memory budget, v2 blobs
// snapshot/restore through the blob re-validation layer, and mode
// mismatches are rejected as protocol errors instead of tripping the
// sketch-level geometry CHECKs.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "server/protocol.h"
#include "server/sketch_service.h"
#include "sketch/count_min.h"
#include "sketch/width_mode.h"
#include "stream/update.h"

namespace sketch::server {
namespace {

Frame Handle(SketchService* service, const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  const std::vector<uint8_t> response = service->HandleFrame(frame);
  FrameDecoder response_decoder;
  response_decoder.Feed(response.data(), response.size());
  Frame response_frame;
  EXPECT_EQ(response_decoder.Next(&response_frame), DecodeStatus::kFrame);
  return response_frame;
}

void ExpectOk(SketchService* service, const std::vector<uint8_t>& bytes) {
  const Frame response = Handle(service, bytes);
  ErrorResponse error;
  if (DecodeError(response, &error)) {
    FAIL() << "server error: " << error.message;
  }
  EXPECT_EQ(response.opcode, Opcode::kOk);
}

ErrorResponse ExpectError(SketchService* service,
                          const std::vector<uint8_t>& bytes) {
  const Frame response = Handle(service, bytes);
  ErrorResponse error;
  EXPECT_TRUE(DecodeError(response, &error))
      << "expected a kError response, got " << OpcodeName(response.opcode);
  return error;
}

void Create(SketchService* service, const std::string& name, SketchType type,
            const std::array<uint64_t, 5>& params) {
  CreateSketchRequest request;
  request.name = name;
  request.type = type;
  request.params = params;
  ExpectOk(service, EncodeCreateSketch(request));
}

uint64_t Ingest(SketchService* service, const std::string& name,
                const std::vector<StreamUpdate>& updates) {
  const Frame response =
      Handle(service, EncodeIngestSpan(name, UpdateSpan(updates)));
  IngestAckResponse ack;
  EXPECT_TRUE(DecodeIngestAck(response, &ack));
  return ack.accepted;
}

PointValueResponse Query(SketchService* service, const std::string& name,
                         uint64_t item) {
  PointQueryRequest request;
  request.name = name;
  request.item = item;
  const Frame response = Handle(service, EncodePointQuery(request));
  PointValueResponse value;
  EXPECT_TRUE(DecodePointValue(response, &value));
  return value;
}

std::vector<uint8_t> Snapshot(SketchService* service,
                              const std::string& name) {
  NamedRequest request;
  request.name = name;
  const Frame response = Handle(service, EncodeSnapshot(request));
  BlobResponse blob;
  EXPECT_TRUE(DecodeBlob(response, &blob));
  return blob.bytes;
}

TEST(WidthModeServiceTest, Pow2CreateRoundsWidthIntoTheBound) {
  SketchService service({});
  // width 1000 -> 1024; params[3] = 1 selects WidthMode::kPow2.
  Create(&service, "cm", SketchType::kCountMin, {1000, 4, 7, 1, 0});
  EXPECT_EQ(Ingest(&service, "cm", {{5, 100}, {9, 70}}), 2u);
  const PointValueResponse value = Query(&service, "cm", 5);
  EXPECT_GE(value.estimate, 100);
  // The bound must use the ROUNDED width (1024), not the requested 1000 —
  // that's the documented pow2 accuracy caveat.
  EXPECT_NEAR(value.error_bound, 2.718281828 / 1024.0 * 170.0, 1e-6);
}

TEST(WidthModeServiceTest, Pow2SnapshotWritesV2AndRestores) {
  SketchService service({});
  Create(&service, "origin", SketchType::kCountMin, {1000, 4, 21, 1, 0});
  Ingest(&service, "origin", {{11, 500}, {12, 250}});
  const std::vector<uint8_t> blob = Snapshot(&service, "origin");
  // v2 magic "SKCMIN02", little-endian.
  uint64_t magic = 0;
  for (int i = 7; i >= 0; --i) magic = (magic << 8) | blob[static_cast<size_t>(i)];
  EXPECT_EQ(magic, 0x534b434d494e3032ULL);

  RestoreRequest restore;
  restore.name = "copy";
  restore.type = SketchType::kCountMin;
  restore.blob = blob;
  ExpectOk(&service, EncodeRestore(restore));
  EXPECT_EQ(Query(&service, "copy", 11).estimate,
            Query(&service, "origin", 11).estimate);
  EXPECT_DOUBLE_EQ(Query(&service, "copy", 11).error_bound,
                   Query(&service, "origin", 11).error_bound);
}

TEST(WidthModeServiceTest, ShardedPow2MatchesPlainPow2) {
  SketchService service({});
  Create(&service, "plain", SketchType::kCountMin, {1000, 4, 99, 1, 0});
  // Sharded: params[3] is the shard count, params[4] the mode word.
  Create(&service, "sharded", SketchType::kShardedCountMin,
         {1000, 4, 99, 2, 1});
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 10000; ++i) updates.push_back({i % 300, 1});
  Ingest(&service, "plain", updates);
  Ingest(&service, "sharded", updates);
  EXPECT_EQ(Snapshot(&service, "plain"), Snapshot(&service, "sharded"));

  // The sharded blob (a pow2 v2 CountMin) restores through the sharded
  // blob-validation path too.
  RestoreRequest restore;
  restore.name = "sharded_copy";
  restore.type = SketchType::kShardedCountMin;
  restore.blob = Snapshot(&service, "sharded");
  ExpectOk(&service, EncodeRestore(restore));
  EXPECT_EQ(Query(&service, "sharded_copy", 123).estimate,
            Query(&service, "plain", 123).estimate);
}

TEST(WidthModeServiceTest, UnknownModeWordIsBadGeometry) {
  SketchService service({});
  CreateSketchRequest request;
  request.name = "bad";
  request.type = SketchType::kCountMin;
  request.params = {1024, 4, 7, 2, 0};  // mode word 2 is undefined
  EXPECT_EQ(ExpectError(&service, EncodeCreateSketch(request)).code,
            ErrorCode::kBadGeometry);
  EXPECT_EQ(service.sketch_count(), 0u);
}

TEST(WidthModeServiceTest, Pow2RoundingCannotDodgeTheBudget) {
  SketchService service({});
  CreateSketchRequest request;
  request.name = "huge";
  request.type = SketchType::kCountMin;
  // 131073 * 3 = 393219 counters fits the 2^19 budget as requested, but
  // the pow2 rounding lifts the width to 262144 and 262144 * 3 blows the
  // cap — the budget check must see the rounded width. Division mode
  // accepts the identical request.
  request.params = {131073, 3, 7, 0, 0};
  request.name = "fits_division";
  ExpectOk(&service, EncodeCreateSketch(request));
  request.params = {131073, 3, 7, 1, 0};
  request.name = "huge";
  EXPECT_EQ(ExpectError(&service, EncodeCreateSketch(request)).code,
            ErrorCode::kBadGeometry);
  // And an absurd width must be rejected, not fed to std::bit_ceil
  // (which would abort above 2^63).
  request.params = {~0ULL, 1, 7, 1, 0};
  EXPECT_EQ(ExpectError(&service, EncodeCreateSketch(request)).code,
            ErrorCode::kBadGeometry);
}

TEST(WidthModeServiceTest, MixedModeInnerProductIsGeometryMismatch) {
  SketchService service({});
  // Same width/depth/seed; only the width mode differs (1024 is already a
  // power of two, so the pow2 sketch does not round).
  Create(&service, "div", SketchType::kCountMin, {1024, 4, 5, 0, 0});
  Create(&service, "pow2", SketchType::kCountMin, {1024, 4, 5, 1, 0});
  InnerProductRequest request;
  request.left = "div";
  request.right = "pow2";
  EXPECT_EQ(ExpectError(&service, EncodeInnerProduct(request)).code,
            ErrorCode::kGeometryMismatch);
}

TEST(WidthModeServiceTest, RestoreRejectsCorruptedV2ModeWord) {
  SketchService service({});
  CountMinSketch sketch(1024, 3, 5, WidthMode::kPow2);
  std::vector<uint8_t> blob = sketch.Serialize();
  blob[4 * 8] = 2;  // mode word: kPow2 (1) -> undefined (2)
  RestoreRequest restore;
  restore.name = "corrupt";
  restore.type = SketchType::kCountMin;
  restore.blob = blob;
  EXPECT_EQ(ExpectError(&service, EncodeRestore(restore)).code,
            ErrorCode::kBadBlob);
  EXPECT_EQ(service.sketch_count(), 0u);
}

}  // namespace
}  // namespace sketch::server
