// Conformance tests for kPointQueryBatch (E26): a batched point query
// must be observationally identical to issuing the same keys as
// individual kPointQuery frames — same estimates (bit-identical; the
// batch rides EstimateBatch over the same BlockHasher kernels), same
// bound kinds, and bit-identical error bounds — for every sketch type
// the daemon serves. Plus payload-validation edges: the empty batch and
// the oversized batch.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "server/protocol.h"
#include "server/sketch_service.h"
#include "stream/update.h"

namespace sketch::server {
namespace {

struct TypeCase {
  const char* name;
  SketchType type;
  std::array<uint64_t, 5> params;
};

// Width 4096 in the CountMin case is a power of two, so the kPow2 mask
// reduction path is covered alongside the division path (2000-wide CS).
const TypeCase kAllTypes[] = {
    {"cm", SketchType::kCountMin, {4096, 4, 7, 0, 0}},
    {"cs", SketchType::kCountSketch, {2000, 5, 11, 0, 0}},
    {"bloom", SketchType::kBloom, {16384, 4, 3, 0, 0}},
    {"summary", SketchType::kStreamSummary, {16, 256, 4, 2048, 13}},
    {"sharded", SketchType::kShardedCountMin, {2048, 4, 7, 4, 0}},
};

/// Runs one encoded request through the service and decodes the single
/// response frame into *out.
void Dispatch(SketchService& service, const std::vector<uint8_t>& encoded,
              Frame* out) {
  FrameDecoder decoder;
  decoder.Feed(encoded.data(), encoded.size());
  Frame request;
  ASSERT_EQ(decoder.Next(&request), DecodeStatus::kFrame);
  const std::vector<uint8_t> response = service.HandleFrame(request);
  FrameDecoder response_decoder;
  response_decoder.Feed(response.data(), response.size());
  ASSERT_EQ(response_decoder.Next(out), DecodeStatus::kFrame);
}

void CreateAndFill(SketchService& service, const TypeCase& c) {
  CreateSketchRequest create;
  create.name = c.name;
  create.type = c.type;
  create.params = c.params;
  Frame frame;
  Dispatch(service, EncodeCreateSketch(create), &frame);
  ASSERT_EQ(frame.opcode, Opcode::kOk);

  IngestRequest ingest;
  ingest.name = c.name;
  for (uint64_t i = 0; i < 2048; ++i) {
    ingest.updates.push_back({(i * i) % 997, static_cast<int64_t>(i % 7) + 1});
  }
  ingest.updates.push_back({42, 1000});
  Dispatch(service, EncodeIngest(ingest), &frame);
  ASSERT_EQ(frame.opcode, Opcode::kIngestAck);
}

TEST(BatchQueryTest, BatchMatchesLoopedPointQueriesForEveryType) {
  SketchService service({});
  // Present keys, absent keys, and the heavy key — the batch must agree
  // with per-key queries on all of them.
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 64; ++i) keys.push_back((i * 131) % 1500);
  keys.push_back(42);

  for (const TypeCase& c : kAllTypes) {
    SCOPED_TRACE(c.name);
    CreateAndFill(service, c);

    PointQueryBatchRequest batch;
    batch.name = c.name;
    batch.items = keys;
    Frame frame;
    Dispatch(service, EncodePointQueryBatch(batch), &frame);
    ValueBatchResponse values;
    ASSERT_TRUE(DecodeValueBatch(frame, &values));
    ASSERT_EQ(values.values.size(), keys.size());

    for (std::size_t i = 0; i < keys.size(); ++i) {
      PointQueryRequest single;
      single.name = c.name;
      single.item = keys[i];
      Dispatch(service, EncodePointQuery(single), &frame);
      PointValueResponse expected;
      ASSERT_TRUE(DecodePointValue(frame, &expected)) << "key " << keys[i];
      EXPECT_EQ(values.values[i].estimate, expected.estimate)
          << "key " << keys[i];
      EXPECT_EQ(values.values[i].bound_kind, expected.bound_kind);
      // Bit-identical, not approximately equal: the batch kernel must
      // compute the same bound the scalar path does.
      EXPECT_EQ(values.values[i].error_bound, expected.error_bound);
    }
  }
}

TEST(BatchQueryTest, BatchSeesUpdatesAppliedBetweenBatches) {
  // Guards the sharded entry's materialized-cache invalidation: a batch
  // query materializes the collapsed sketch, and a later ingest must
  // invalidate that cache so the next batch sees the new counts.
  SketchService service({});
  TypeCase c = {"sharded-dirty", SketchType::kShardedCountMin,
                {1024, 4, 5, 2, 0}};
  CreateAndFill(service, c);

  PointQueryBatchRequest batch;
  batch.name = c.name;
  batch.items = {42};
  Frame frame;
  Dispatch(service, EncodePointQueryBatch(batch), &frame);
  ValueBatchResponse before;
  ASSERT_TRUE(DecodeValueBatch(frame, &before));
  ASSERT_EQ(before.values.size(), 1u);

  IngestRequest ingest;
  ingest.name = c.name;
  ingest.updates = {{42, 500}};
  Dispatch(service, EncodeIngest(ingest), &frame);
  ASSERT_EQ(frame.opcode, Opcode::kIngestAck);

  Dispatch(service, EncodePointQueryBatch(batch), &frame);
  ValueBatchResponse after;
  ASSERT_TRUE(DecodeValueBatch(frame, &after));
  EXPECT_EQ(after.values[0].estimate, before.values[0].estimate + 500);
}

TEST(BatchQueryTest, EmptyBatchReturnsEmptyValueBatch) {
  SketchService service({});
  TypeCase c = {"empty", SketchType::kCountMin, {512, 4, 3, 0, 0}};
  CreateAndFill(service, c);
  PointQueryBatchRequest batch;
  batch.name = c.name;
  Frame frame;
  Dispatch(service, EncodePointQueryBatch(batch), &frame);
  ValueBatchResponse values;
  ASSERT_TRUE(DecodeValueBatch(frame, &values));
  EXPECT_TRUE(values.values.empty());
}

TEST(BatchQueryTest, OversizedBatchIsRejectedNotAllocated) {
  // A count field past kMaxBatchQueryItems must be rejected from the
  // header alone (before any resize) — the encoder refuses to build such
  // a frame, so it is assembled by hand here.
  SketchService service({});
  TypeCase c = {"big", SketchType::kCountMin, {512, 4, 3, 0, 0}};
  CreateAndFill(service, c);

  std::vector<uint8_t> payload;
  AppendName("big", &payload);
  AppendU32(kMaxBatchQueryItems + 1, &payload);  // lying count, no items
  Frame frame;
  Dispatch(service, EncodeFrame(Opcode::kPointQueryBatch, payload), &frame);
  ErrorResponse error;
  ASSERT_TRUE(DecodeError(frame, &error));
  EXPECT_EQ(error.code, ErrorCode::kMalformedPayload);
}

TEST(BatchQueryTest, BatchForMissingSketchIsNoSuchSketch) {
  SketchService service({});
  PointQueryBatchRequest batch;
  batch.name = "ghost";
  batch.items = {1, 2, 3};
  Frame frame;
  Dispatch(service, EncodePointQueryBatch(batch), &frame);
  ErrorResponse error;
  ASSERT_TRUE(DecodeError(frame, &error));
  EXPECT_EQ(error.code, ErrorCode::kNoSuchSketch);
}

}  // namespace
}  // namespace sketch::server
