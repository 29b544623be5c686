// Service-level tests driven directly through HandleFrame (no transport):
// create/ingest/query semantics per sketch family, error-bound reporting,
// snapshot/restore equivalence, cached bounds staying bit-identical to a
// fresh scan across writes, registry management, and the statsz / trace
// introspection endpoints.

#include "server/sketch_service.h"

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/wrapping.h"
#include "fresh_bound.h"
#include "gtest/gtest.h"
#include "server/protocol.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/update.h"
#include "telemetry/metric_registry.h"

namespace sketch::server {
namespace {

/// Decodes one encoded frame.
Frame DecodeOne(const std::vector<uint8_t>& bytes) {
  FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), DecodeStatus::kFrame);
  return frame;
}

/// Round-trips `request_bytes` through the service and returns the
/// decoded response frame.
Frame Handle(SketchService* service, const std::vector<uint8_t>& bytes) {
  const std::vector<uint8_t> response = service->HandleFrame(DecodeOne(bytes));
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

std::vector<PointValueResponse> QueryBatch(SketchService* service,
                                           const std::string& name,
                                           const std::vector<uint64_t>& items) {
  PointQueryBatchRequest request;
  request.name = name;
  request.items = items;
  const Frame response = Handle(service, EncodePointQueryBatch(request));
  ValueBatchResponse batch;
  EXPECT_TRUE(DecodeValueBatch(response, &batch));
  return batch.values;
}

using FreshBound = double (*)(const std::vector<uint8_t>&);

/// Checks that every bound `name` serves (single and batched, read twice
/// so the second read comes from the cache) equals a fresh scan of its
/// current snapshot; returns that bound.
double ExpectServedBoundIsFreshScan(SketchService* service,
                                    const std::string& name, FreshBound fresh) {
  const double expected = fresh(Snapshot(service, name));
  for (int read = 0; read < 2; ++read) {
    EXPECT_EQ(Query(service, name, 1).error_bound, expected) << name;
    for (const PointValueResponse& value :
         QueryBatch(service, name, {1, 2, 3})) {
      EXPECT_EQ(value.error_bound, expected) << name;
    }
  }
  return expected;
}

/// Walks one sketch through create, ingest, query -> ingest -> query, and
/// snapshot -> restore under a new name, checking the served bound
/// against a fresh scan at each point. `second` must move the bound.
void ExpectCachedBoundTracksWrites(SketchType type,
                                   const std::array<uint64_t, 5>& params,
                                   const std::vector<StreamUpdate>& first,
                                   const std::vector<StreamUpdate>& second,
                                   FreshBound fresh) {
  SketchService service({});
  Create(&service, "s", type, params);
  ExpectServedBoundIsFreshScan(&service, "s", fresh);
  Ingest(&service, "s", first);
  const double before = ExpectServedBoundIsFreshScan(&service, "s", fresh);
  Ingest(&service, "s", second);
  const double after = ExpectServedBoundIsFreshScan(&service, "s", fresh);
  EXPECT_NE(after, before);  // the ingest invalidated the cached scan

  RestoreRequest restore;
  restore.name = "restored";
  restore.type = type;
  restore.blob = Snapshot(&service, "s");
  ExpectOk(&service, EncodeRestore(restore));
  EXPECT_EQ(ExpectServedBoundIsFreshScan(&service, "restored", fresh), after);
}

TEST(SketchServiceTest, CountMinIngestQueryAndBound) {
  SketchService service({});
  Create(&service, "cm", SketchType::kCountMin, {4096, 4, 7, 0, 0});
  EXPECT_EQ(Ingest(&service, "cm", {{5, 100}, {9, 50}, {5, 20}}), 3u);
  const PointValueResponse value = Query(&service, "cm", 5);
  // Count-Min never underestimates.
  EXPECT_GE(value.estimate, 120);
  EXPECT_EQ(value.bound_kind, BoundKind::kL1);
  // eps * ||x||_1 with eps = e / width and L1 = 170.
  EXPECT_NEAR(value.error_bound, 2.718281828 / 4096.0 * 170.0, 1e-6);
}

TEST(SketchServiceTest, CountSketchReportsL2Bound) {
  SketchService service({});
  Create(&service, "cs", SketchType::kCountSketch, {2048, 5, 11, 0, 0});
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 100; ++i) updates.push_back({i, 10});
  Ingest(&service, "cs", updates);
  const PointValueResponse value = Query(&service, "cs", 3);
  EXPECT_EQ(value.bound_kind, BoundKind::kL2);
  // F2 = 100 * 10^2 = 10^4; bound = sqrt(3 * F2 / width) ~ 3.8. The
  // counter-based F2 estimate is noisy, so allow a wide band.
  EXPECT_GT(value.error_bound, 0.0);
  EXPECT_LT(value.error_bound, 50.0);
}

TEST(SketchServiceTest, BloomMembershipAndFprBound) {
  SketchService service({});
  Create(&service, "bloom", SketchType::kBloom, {8192, 4, 3, 0, 0});
  Ingest(&service, "bloom", {{42, 1}, {77, 1}});
  EXPECT_EQ(Query(&service, "bloom", 42).estimate, 1);
  EXPECT_EQ(Query(&service, "bloom", 77).estimate, 1);
  const PointValueResponse absent = Query(&service, "bloom", 123456);
  EXPECT_EQ(absent.estimate, 0);
  EXPECT_EQ(absent.bound_kind, BoundKind::kFpr);
  // 8 set bits out of 8192 at most: fpr bound is tiny but positive.
  EXPECT_GT(absent.error_bound, 0.0);
  EXPECT_LT(absent.error_bound, 1e-6);
}

TEST(SketchServiceTest, StreamSummaryHeavyHittersAndUniverseGuard) {
  SketchService service({});
  Create(&service, "sum", SketchType::kStreamSummary, {16, 512, 4, 4096, 13});
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 2000; ++i) updates.push_back({i % 500, 1});
  updates.push_back({7, 3000});  // one heavy item
  EXPECT_EQ(Ingest(&service, "sum", updates), updates.size());

  HeavyHittersRequest hh;
  hh.name = "sum";
  hh.phi = 0.3;
  ItemsResponse items;
  ASSERT_TRUE(DecodeItems(Handle(&service, EncodeHeavyHitters(hh)), &items));
  ASSERT_EQ(items.items.size(), 1u);
  EXPECT_EQ(items.items[0], 7u);

  // Batches with out-of-universe items are rejected atomically.
  const Frame rejected = Handle(
      &service, EncodeIngestSpan("sum", std::vector<StreamUpdate>{
                                            {1ULL << 20, 1}}));
  ErrorResponse error;
  ASSERT_TRUE(DecodeError(rejected, &error));
  EXPECT_EQ(error.code, ErrorCode::kMalformedPayload);
  // Out-of-universe queries answer zero without touching the sketch.
  EXPECT_EQ(Query(&service, "sum", 1ULL << 30).estimate, 0);
}

TEST(SketchServiceTest, CountSketchCachedBoundIsFreshScan) {
  std::vector<StreamUpdate> first;
  for (uint64_t i = 0; i < 100; ++i) first.push_back({i, 10});
  ExpectCachedBoundTracksWrites(SketchType::kCountSketch, {2048, 5, 11, 0, 0},
                                first, {{7, 1000}}, FreshCountSketchBound);
}

TEST(SketchServiceTest, BloomCachedBoundIsFreshScan) {
  ExpectCachedBoundTracksWrites(SketchType::kBloom, {8192, 4, 3, 0, 0},
                                {{42, 1}, {77, 1}}, {{500, 1}, {501, 1}},
                                FreshBloomBound);
}

TEST(SketchServiceTest, StreamSummaryCachedBoundIsFreshScan) {
  std::vector<StreamUpdate> first;
  for (uint64_t i = 0; i < 2000; ++i) first.push_back({i % 500, 1});
  ExpectCachedBoundTracksWrites(SketchType::kStreamSummary,
                                {16, 512, 4, 4096, 13}, first, {{7, 3000}},
                                FreshSummaryBound);
}

TEST(SketchServiceTest, CountSketchBoundPastTwoPow53IsFreshScan) {
  // Deltas near +-2^40 and INT64_MAX push every row's sum of squared
  // counters past 2^53, where the F2 scan falls back to summing in row
  // order; the served bound must still equal the fresh row-order scan.
  // The deltas' low bits and the 4000 of them make the summation order
  // show in the bound, so a scan that skipped the fallback would fail.
  std::vector<StreamUpdate> first;
  for (uint64_t i = 0; i < 4000; ++i) {
    const auto magnitude =
        static_cast<int64_t>((uint64_t{1} << 40) + i * 0x9e3779bULL);
    first.push_back({i, i % 2 == 0 ? magnitude : -magnitude});
  }
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<StreamUpdate> second = {{7, kMax}, {8, kMax}};
  const std::array<uint64_t, 5> params = {2048, 5, 11, 0, 0};
  ExpectCachedBoundTracksWrites(SketchType::kCountSketch, params, first, second,
                                FreshCountSketchBound);

  SketchService service({});
  Create(&service, "cs", SketchType::kCountSketch, params);
  Ingest(&service, "cs", first);
  const double bound =
      ExpectServedBoundIsFreshScan(&service, "cs", FreshCountSketchBound);
  // bound = sqrt(3 * F2 / width), so F2 = bound^2 * width / 3.
  EXPECT_GE(bound * bound * 2048.0 / 3.0, 9007199254740992.0);
}

TEST(SketchServiceTest, ShardedCountMinMatchesPlainCountMin) {
  SketchService service({});
  Create(&service, "plain", SketchType::kCountMin, {1024, 4, 99, 0, 0});
  Create(&service, "sharded", SketchType::kShardedCountMin,
         {1024, 4, 99, 4, 0});
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 10000; ++i) updates.push_back({i % 300, 1});
  Ingest(&service, "plain", updates);
  Ingest(&service, "sharded", updates);
  // Merge-linearity: the collapsed sharded sketch is counter-identical to
  // the sequential one, so the snapshots are bit-identical.
  EXPECT_EQ(Snapshot(&service, "plain"), Snapshot(&service, "sharded"));
  EXPECT_EQ(Query(&service, "plain", 123).estimate,
            Query(&service, "sharded", 123).estimate);
}

TEST(SketchServiceTest, SnapshotRestoreRoundTripPreservesQueries) {
  SketchService service({});
  Create(&service, "origin", SketchType::kCountMin, {2048, 4, 21, 0, 0});
  Ingest(&service, "origin", {{11, 500}, {12, 250}});
  const std::vector<uint8_t> blob = Snapshot(&service, "origin");

  RestoreRequest restore;
  restore.name = "copy";
  restore.type = SketchType::kCountMin;
  restore.blob = blob;
  ExpectOk(&service, EncodeRestore(restore));
  EXPECT_EQ(Query(&service, "copy", 11).estimate,
            Query(&service, "origin", 11).estimate);
  // The restored sketch recovered the L1 mass from its counters, so the
  // bound matches too.
  EXPECT_DOUBLE_EQ(Query(&service, "copy", 11).error_bound,
                   Query(&service, "origin", 11).error_bound);
  // And the copy keeps evolving independently.
  Ingest(&service, "copy", {{11, 1}});
  EXPECT_EQ(Query(&service, "copy", 11).estimate,
            Query(&service, "origin", 11).estimate + 1);
}

// A restore decodes its blob where it lies in the frame's payload, which
// a name of 1 to 8 bytes puts at every offset modulo 8. Whatever the
// offset, the restored sketch snapshots to the source's bytes.
TEST(SketchServiceTest, RestoreAtEveryPayloadAlignmentKeepsTheBytes) {
  struct Family {
    SketchType type;
    std::array<uint64_t, 5> params;
  };
  const Family families[] = {
      {SketchType::kCountMin, {512, 3, 5, 0, 0}},
      {SketchType::kCountMin, {512, 3, 5, 1, 0}},
      {SketchType::kCountSketch, {256, 5, 6, 0, 0}},
      {SketchType::kBloom, {4000, 3, 7, 0, 0}},
      {SketchType::kStreamSummary, {10, 64, 3, 128, 8}},
  };
  std::vector<StreamUpdate> updates;
  for (uint64_t i = 0; i < 300; ++i) {
    updates.push_back({(i * 37) % 1000, static_cast<int64_t>(i % 7) - 3});
  }
  updates.push_back({999, INT64_MAX});
  for (const Family& family : families) {
    SketchService service({});
    Create(&service, "src", family.type, family.params);
    Ingest(&service, "src", updates);
    const std::vector<uint8_t> source = Snapshot(&service, "src");
    ASSERT_FALSE(source.empty());
    for (std::size_t length = 1; length <= 8; ++length) {
      RestoreRequest restore;
      restore.name = std::string(length, 'r');
      restore.type = family.type;
      restore.blob = source;
      ExpectOk(&service, EncodeRestore(restore));
      EXPECT_EQ(Snapshot(&service, restore.name), source)
          << SketchTypeName(family.type) << " name length " << length;
    }
  }
}

// SnapshotBytes sizes a snapshot's response frame: it must cover the
// blob (else the frame regrows and copies the table) and overshoot by at
// most one word (a v1 header counted as v2). A StreamSummary at
// log_universe 16 has over 512 bytes of headers.
TEST(SketchServiceTest, SnapshotBytesCoversTheSnapshotWithinOneWord) {
  SketchService service({});
  Create(&service, "cm", SketchType::kCountMin, {512, 3, 5, 0, 0});
  Create(&service, "cm_pow2", SketchType::kCountMin, {512, 3, 5, 1, 0});
  Create(&service, "sharded", SketchType::kShardedCountMin,
         {1024, 4, 99, 4, 0});
  Create(&service, "cs", SketchType::kCountSketch, {256, 5, 6, 0, 0});
  Create(&service, "bloom", SketchType::kBloom, {4000, 3, 7, 0, 0});
  Create(&service, "sum", SketchType::kStreamSummary, {16, 64, 4, 128, 13});
  std::vector<std::pair<std::string, uint64_t>> hints;
  service.ForEachSketch(
      [&](const std::string& name, const internal::SketchEntry& entry) {
        hints.emplace_back(name, entry.SnapshotBytes());
      });
  ASSERT_EQ(hints.size(), 6u);
  for (const auto& [name, hint] : hints) {
    const uint64_t bytes = Snapshot(&service, name).size();
    EXPECT_GE(hint, bytes) << name;
    EXPECT_LE(hint, bytes + 8) << name;
  }
}

TEST(SketchServiceTest, HostileL1MassSaturatesInsteadOfOverflowing) {
  // |INT64_MIN| does not fit an int64_t, and two of them overflow a
  // uint64_t. A restored row-0 counter of INT64_MIN plus an ingested
  // INT64_MIN delta must still serve a finite, non-negative L1 bound.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  CountMinSketch hostile(1024, 1, 3);
  hostile.Update({1, kMin});
  // A key in another bucket, so the ingest adds to a zero counter: the
  // sketch's own counter arithmetic is not what this test is about.
  uint64_t other = 2;
  while (hostile.Estimate(other) != 0) ++other;

  SketchService service({});
  for (const SketchType type :
       {SketchType::kCountMin, SketchType::kShardedCountMin}) {
    const std::string name = SketchTypeName(type);
    RestoreRequest restore;
    restore.name = name;
    restore.type = type;
    restore.blob = hostile.Serialize();
    ExpectOk(&service, EncodeRestore(restore));
    const double restored = Query(&service, name, 1).error_bound;
    EXPECT_TRUE(std::isfinite(restored)) << name;
    EXPECT_GT(restored, 0.0) << name;

    Ingest(&service, name, {{other, kMin}});
    const double ingested = Query(&service, name, 1).error_bound;
    EXPECT_TRUE(std::isfinite(ingested)) << name;
    EXPECT_GE(ingested, restored) << name;
    for (const PointValueResponse& value :
         QueryBatch(&service, name, {1, other})) {
      EXPECT_EQ(value.error_bound, ingested) << name;
    }
  }
}

TEST(SketchServiceTest, InnerProductBetweenIdenticalGeometry) {
  SketchService service({});
  Create(&service, "x", SketchType::kCountMin, {4096, 4, 5, 0, 0});
  Create(&service, "y", SketchType::kCountMin, {4096, 4, 5, 0, 0});
  Ingest(&service, "x", {{1, 3}, {2, 4}});
  Ingest(&service, "y", {{1, 10}, {3, 7}});
  InnerProductRequest request;
  request.left = "x";
  request.right = "y";
  PointValueResponse value;
  ASSERT_TRUE(
      DecodePointValue(Handle(&service, EncodeInnerProduct(request)), &value));
  // True <x, y> = 3 * 10 = 30; Count-Min overestimates only on
  // collisions, which are negligible at this width.
  EXPECT_EQ(value.estimate, 30);
}

TEST(SketchServiceTest, DropAndListManageRegistry) {
  SketchService service({});
  Create(&service, "keep", SketchType::kCountMin, {64, 2, 1, 0, 0});
  Create(&service, "drop", SketchType::kBloom, {512, 3, 1, 0, 0});
  EXPECT_EQ(service.sketch_count(), 2u);

  TextResponse text;
  ASSERT_TRUE(DecodeText(Handle(&service, EncodeListSketches()), &text));
  EXPECT_NE(text.text.find("\"keep\""), std::string::npos);
  EXPECT_NE(text.text.find("\"Bloom\""), std::string::npos);

  NamedRequest request;
  request.name = "drop";
  ExpectOk(&service, EncodeDropSketch(request));
  EXPECT_EQ(service.sketch_count(), 1u);
  ASSERT_TRUE(DecodeText(Handle(&service, EncodeListSketches()), &text));
  EXPECT_EQ(text.text.find("\"drop\""), std::string::npos);
}

TEST(SketchServiceTest, StatszAndTraceEndpointsReturnJson) {
  SketchService service({});
  Create(&service, "observed", SketchType::kCountMin, {128, 2, 1, 0, 0});
  Ingest(&service, "observed", {{1, 1}});
  TextResponse statsz;
  ASSERT_TRUE(DecodeText(Handle(&service, EncodeStatsz()), &statsz));
  EXPECT_EQ(statsz.text.front(), '{');
  EXPECT_NE(statsz.text.find("\"sketches\""), std::string::npos);
  EXPECT_NE(statsz.text.find("\"observed\""), std::string::npos);
  EXPECT_NE(statsz.text.find("\"metrics\""), std::string::npos);

  TextResponse trace;
  ASSERT_TRUE(DecodeText(Handle(&service, EncodeTraceDump()), &trace));
  // Chrome trace JSON: an object with a traceEvents array.
  EXPECT_NE(trace.text.find("traceEvents"), std::string::npos);
}

TEST(SketchServiceTest, JsonEscapesHostileNames) {
  SketchService service({});
  Create(&service, "quote\"back\\slash", SketchType::kCountMin,
         {64, 2, 1, 0, 0});
  TextResponse text;
  ASSERT_TRUE(DecodeText(Handle(&service, EncodeListSketches()), &text));
  EXPECT_NE(text.text.find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(SketchServiceTest, PingAndShutdown) {
  SketchService service({});
  EXPECT_EQ(Handle(&service, EncodePing()).opcode, Opcode::kPong);
  EXPECT_FALSE(service.shutdown_requested());
  ExpectOk(&service, EncodeShutdown());
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(SketchServiceTest, ShardedRestoreWrapsCountersLikeReplay) {
  // A client-restored table with a counter at INT64_MAX takes +1 and
  // INT64_MIN deltas that push counters past the int64_t range. Counter
  // arithmetic wraps mod 2^64, so the served answers and snapshot equal a
  // sequential replay, for a flat and a sharded CountMin alike.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  CountMinSketch replay(1024, 2, 3);
  replay.Update({1, kMax});
  const std::vector<uint8_t> blob = replay.Serialize();
  const std::vector<StreamUpdate> updates = {{1, 1}, {2, kMin}, {1, kMin}};
  replay.ApplyBatch(updates);

  SketchService service({});
  for (const SketchType type :
       {SketchType::kCountMin, SketchType::kShardedCountMin}) {
    const std::string name = SketchTypeName(type);
    RestoreRequest restore;
    restore.name = name;
    restore.type = type;
    restore.blob = blob;
    ExpectOk(&service, EncodeRestore(restore));
    EXPECT_EQ(Ingest(&service, name, updates), updates.size());
    for (const uint64_t item : {1, 2, 3}) {
      EXPECT_EQ(Query(&service, name, item).estimate, replay.Estimate(item))
          << name << " item " << item;
    }
    const std::vector<PointValueResponse> batch =
        QueryBatch(&service, name, {1, 2});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].estimate, replay.Estimate(1)) << name;
    EXPECT_EQ(batch[1].estimate, replay.Estimate(2)) << name;
    EXPECT_EQ(Snapshot(&service, name), replay.Serialize()) << name;
  }
}

/// A width-64 x depth-2 CountSketch blob whose two row estimates for item
/// 1 are `rows[0]` and `rows[1]`: each row's counter is its sign times the
/// wanted estimate, so sign * counter gives the estimate back.
std::vector<uint8_t> TwoRowCountSketchBlob(const std::array<int64_t, 2>& rows) {
  CountSketch probe(64, 2, 17);
  probe.Update({1, 1});  // each row's counter becomes that row's sign
  std::vector<uint8_t> blob = probe.Serialize();
  const std::size_t header = blob.size() - 2 * 64 * sizeof(int64_t);
  for (uint64_t row = 0; row < 2; ++row) {
    for (uint64_t bucket = 0; bucket < 64; ++bucket) {
      const int64_t sign = probe.CounterAt(row, bucket);
      if (sign == 0) continue;
      const auto counter = static_cast<uint64_t>(WrapMul(sign, rows[row]));
      const std::size_t at = header + (row * 64 + bucket) * sizeof(int64_t);
      for (std::size_t i = 0; i < sizeof(int64_t); ++i) {
        blob[at + i] = static_cast<uint8_t>(counter >> (8 * i));
      }
    }
  }
  return blob;
}

TEST(SketchServiceTest, EvenDepthCountSketchMedianIsExact) {
  // An even-depth median is the mean of the two middle rows, truncated
  // toward zero. Rows near the int64_t limits must not overflow it: the
  // served answer equals the mean taken in 128 bits, on the point and the
  // batched query paths.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::array<int64_t, 2> pairs[] = {
      {kMax, kMax}, {kMin, kMin},     {kMin, kMax},     {kMax, kMin},
      {-3, 0},      {3, 0},           {-3, -4},         {5, 8},
      {kMax, 1},    {kMin, -1},       {kMax - 1, kMax}, {kMin + 1, kMin},
  };
  SketchService service({});
  int index = 0;
  for (const std::array<int64_t, 2>& rows : pairs) {
    const std::string name = "rows-" + std::to_string(index++);
    SCOPED_TRACE(std::to_string(rows[0]) + ", " + std::to_string(rows[1]));
    RestoreRequest restore;
    restore.name = name;
    restore.type = SketchType::kCountSketch;
    restore.blob = TwoRowCountSketchBlob(rows);
    ExpectOk(&service, EncodeRestore(restore));
    const auto expected = static_cast<int64_t>(
        (static_cast<__int128>(rows[0]) + rows[1]) / 2);
    EXPECT_EQ(Query(&service, name, 1).estimate, expected);
    for (const PointValueResponse& value : QueryBatch(&service, name, {1, 1})) {
      EXPECT_EQ(value.estimate, expected);
    }
  }
  // The same through ingest: a delta of INT64_MAX puts it in both rows.
  Create(&service, "ingested", SketchType::kCountSketch, {64, 2, 17, 0, 0});
  Ingest(&service, "ingested", {{1, kMax}});
  EXPECT_EQ(Query(&service, "ingested", 1).estimate, kMax);
  EXPECT_EQ(QueryBatch(&service, "ingested", {1}).at(0).estimate, kMax);
}

TEST(SketchServiceTest, StreamSummaryPointQueryOfInt64Min) {
  // Both of a StreamSummary's estimates of an item ingested with
  // INT64_MIN are INT64_MIN, whose magnitude no int64_t holds. The tie
  // goes to the dyadic (upper) estimate, as for every other tie.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  SketchService service({});
  Create(&service, "summary", SketchType::kStreamSummary,
         {8, 256, 3, 512, 5});
  Ingest(&service, "summary", {{1, kMin}});
  EXPECT_EQ(Query(&service, "summary", 1).estimate, kMin);
  EXPECT_EQ(QueryBatch(&service, "summary", {1}).at(0).estimate, kMin);
}

TEST(SketchServiceTest, LoneIngestIsARunOfOne) {
  // A lone ingest frame served by HandleFrame and the same frame inside a
  // HandleFrames run take one path: equal acks, equal state, one latency
  // sample each, and a slow-log entry with the frame's payload size.
  telemetry::MetricRegistry::Instance().ResetForTest();
  const telemetry::Histogram& latency =
      telemetry::MetricRegistry::Instance().GetHistogram(
          OpcodeLatencyMetric(Opcode::kIngest));
  const std::vector<StreamUpdate> updates = {{1, 3}, {2, -1}, {1, 4}};
  const Frame ingest = DecodeOne(EncodeIngestSpan("s", UpdateSpan(updates)));

  SketchService lone({});
  SketchService in_run({});
  for (SketchService* service : {&lone, &in_run}) {
    Create(service, "s", SketchType::kCountMin, {256, 3, 5, 0, 0});
  }
  const std::vector<uint8_t> lone_ack = lone.HandleFrame(ingest);
  EXPECT_EQ(latency.GetSnapshot().count, 1u);

  const std::vector<Frame> run = {DecodeOne(EncodePing()), ingest,
                                  DecodeOne(EncodePing())};
  std::vector<std::vector<uint8_t>> responses;
  in_run.HandleFrames(run, &responses);
  ASSERT_EQ(responses.size(), run.size());
  EXPECT_EQ(latency.GetSnapshot().count, 2u);
  EXPECT_EQ(responses[1], lone_ack);
  IngestAckResponse ack;
  ASSERT_TRUE(DecodeIngestAck(DecodeOne(lone_ack), &ack));
  EXPECT_EQ(ack.accepted, updates.size());
  EXPECT_EQ(Snapshot(&lone, "s"), Snapshot(&in_run, "s"));

  for (const SketchService* service : {&lone, &in_run}) {
    std::vector<SlowQueryLog::Entry> ingests;
    for (const SlowQueryLog::Entry& entry :
         service->slow_query_log().SnapshotSorted()) {
      if (entry.opcode == Opcode::kIngest) ingests.push_back(entry);
    }
    ASSERT_EQ(ingests.size(), 1u);
    EXPECT_EQ(ingests[0].sketch_name, "s");
    EXPECT_EQ(ingests[0].payload_bytes, ingest.payload.size());
  }
}

// --- The entry surface: what each family answers or refuses ---------------

struct FamilyCase {
  SketchType type;
  std::array<uint64_t, 5> params;
  bool heavy_hitters;  // answers HeavyHitters
  bool inner_product;  // answers an InnerProduct with itself
};

/// One case per SketchType.
const FamilyCase kFamilies[] = {
    {SketchType::kCountMin, {256, 3, 5, 0, 0}, false, true},
    {SketchType::kCountSketch, {256, 3, 5, 0, 0}, false, true},
    {SketchType::kBloom, {4096, 3, 5, 0, 0}, false, false},
    {SketchType::kStreamSummary, {12, 256, 3, 512, 5}, true, false},
    {SketchType::kShardedCountMin, {256, 3, 5, 2, 0}, false, true},
};

/// The error code of an error response; nullopt for any other response.
std::optional<ErrorCode> ErrorOf(const Frame& response) {
  ErrorResponse error;
  if (!DecodeError(response, &error)) return std::nullopt;
  return error.code;
}

std::optional<ErrorCode> InnerProductError(SketchService* service,
                                           const std::string& left,
                                           const std::string& right) {
  InnerProductRequest request;
  request.left = left;
  request.right = right;
  return ErrorOf(Handle(service, EncodeInnerProduct(request)));
}

TEST(ServiceEntrySurfaceTest, UnsupportedQueriesAreRefusedPerFamily) {
  SketchService service({});
  for (const FamilyCase& family : kFamilies) {
    const std::string name = SketchTypeName(family.type);
    SCOPED_TRACE(name);
    Create(&service, name, family.type, family.params);
    Ingest(&service, name, {{1, 5}, {2, 1}});

    HeavyHittersRequest heavy;
    heavy.name = name;
    heavy.phi = 0.5;
    const Frame hh = Handle(&service, EncodeHeavyHitters(heavy));
    if (family.heavy_hitters) {
      ItemsResponse items;
      EXPECT_TRUE(DecodeItems(hh, &items));
    } else {
      EXPECT_EQ(ErrorOf(hh), ErrorCode::kUnsupported);
    }

    const std::optional<ErrorCode> ip = InnerProductError(&service, name, name);
    if (family.inner_product) {
      EXPECT_EQ(ip, std::nullopt);
    } else {
      EXPECT_EQ(ip, ErrorCode::kUnsupported);
    }
  }
}

TEST(ServiceEntrySurfaceTest, CrossFamilyInnerProductIsUnsupported) {
  SketchService service({});
  Create(&service, "cm", SketchType::kCountMin, {256, 3, 5, 0, 0});
  Create(&service, "cs", SketchType::kCountSketch, {256, 3, 5, 0, 0});
  EXPECT_EQ(InnerProductError(&service, "cm", "cs"), ErrorCode::kUnsupported);
  EXPECT_EQ(InnerProductError(&service, "cs", "cm"), ErrorCode::kUnsupported);
}

TEST(ServiceEntrySurfaceTest, MismatchedGeometryIsRefusedForEveryCountMin) {
  // Width, seed and width mode must each match: for flat and sharded
  // CountMin alike, whichever side is sharded, and for CountSketch.
  struct Table {
    SketchType type;
    std::array<uint64_t, 5> params;
  };
  using Make = Table (*)(uint64_t width, uint64_t seed, uint64_t mode);
  const Make flat = [](uint64_t width, uint64_t seed, uint64_t mode) {
    return Table{SketchType::kCountMin, {width, 3, seed, mode, 0}};
  };
  const Make sharded = [](uint64_t width, uint64_t seed, uint64_t mode) {
    return Table{SketchType::kShardedCountMin, {width, 3, seed, 2, mode}};
  };
  const Make count_sketch = [](uint64_t width, uint64_t seed, uint64_t mode) {
    return Table{SketchType::kCountSketch, {width, 3, seed, mode, 0}};
  };
  const std::vector<std::vector<Make>> families = {{flat, sharded},
                                                   {count_sketch}};
  for (const std::vector<Make>& family : families) {
    for (const Make left : family) {
      for (const Make right : family) {
        SketchService service({});
        const Table base = left(256, 5, 0);
        Create(&service, "base", base.type, base.params);
        const Table same = right(256, 5, 0);
        Create(&service, "same", same.type, same.params);
        EXPECT_EQ(InnerProductError(&service, "base", "same"), std::nullopt);
        const Table mismatched[] = {right(512, 5, 0), right(256, 6, 0),
                                    right(256, 5, 1)};
        int index = 0;
        for (const Table& table : mismatched) {
          const std::string name = "mismatch-" + std::to_string(index++);
          SCOPED_TRACE(std::string(SketchTypeName(base.type)) + " vs " +
                       SketchTypeName(table.type) + " " + name);
          Create(&service, name, table.type, table.params);
          EXPECT_EQ(InnerProductError(&service, "base", name),
                    ErrorCode::kGeometryMismatch);
          EXPECT_EQ(InnerProductError(&service, name, "base"),
                    ErrorCode::kGeometryMismatch);
        }
      }
    }
  }
}

/// The `{"name":"<name>",...}` object for `name` in a List or statsz body;
/// empty if absent.
std::string EntryJson(const std::string& body, const std::string& name) {
  const std::size_t start = body.find("{\"name\":\"" + name + "\"");
  if (start == std::string::npos) return "";
  return body.substr(start, body.find('}', start) + 1 - start);
}

TEST(ServiceEntrySurfaceTest, ShardedEntryIsOneCountMinTableUnderItsOwnType) {
  // A kShardedCountMin sketch reports its own type in List and statsz,
  // and the counters and bytes of one same-geometry CountMin table.
  SketchService service({});
  Create(&service, "flat", SketchType::kCountMin, {2048, 4, 7, 0, 0});
  Create(&service, "sharded", SketchType::kShardedCountMin,
         {2048, 4, 7, 4, 0});
  const std::vector<StreamUpdate> updates = {{1, 5}, {2, -3}, {9, 1}};
  Ingest(&service, "flat", updates);
  Ingest(&service, "sharded", updates);

  TextResponse statsz;
  ASSERT_TRUE(DecodeText(Handle(&service, EncodeStatsz()), &statsz));
  const std::string sharded = EntryJson(statsz.text, "sharded");
  // The flat entry's object under the sharded name and type: the same
  // counters, memory_bytes and updates.
  std::string expected = EntryJson(statsz.text, "flat");
  ASSERT_NE(expected.find("\"memory_bytes\":"), std::string::npos);
  expected.replace(expected.find("\"flat\""), 6, "\"sharded\"");
  expected.replace(expected.find("\"CountMin\""), 10, "\"ShardedCountMin\"");
  EXPECT_EQ(sharded, expected);

  TextResponse list;
  ASSERT_TRUE(DecodeText(Handle(&service, EncodeListSketches()), &list));
  EXPECT_NE(EntryJson(list.text, "sharded").find("\"ShardedCountMin\""),
            std::string::npos)
      << list.text;
}

}  // namespace
}  // namespace sketch::server
