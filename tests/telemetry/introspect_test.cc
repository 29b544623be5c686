// Introspection: every sketch type returns a StatsSnapshot whose
// geometry, occupancy, and memory numbers are consistent with the
// sketch's actual state; composite sketches nest children; the JSON
// rendering follows the documented schema exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "parallel/sharded_sketch.h"
#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "sketch/stream_summary.h"
#include "stream/generators.h"
#include "telemetry/stats.h"

namespace sketch {
namespace {

uint64_t HistogramTotal(const std::vector<uint64_t>& histogram) {
  uint64_t total = 0;
  for (uint64_t count : histogram) total += count;
  return total;
}

TEST(IntrospectTest, CountMinSnapshotIsConsistent) {
  CountMinSketch sketch(1024, 4, 7);
  const auto stream = MakeZipfStream(1 << 14, 1.1, 20000, 1);
  sketch.ApplyBatch(stream);

  const StatsSnapshot snapshot = sketch.Introspect();
  EXPECT_EQ(snapshot.type, "CountMinSketch");
  EXPECT_EQ(snapshot.cells, 4096u);
  EXPECT_EQ(snapshot.memory_bytes, sketch.MemoryFootprintBytes());
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("width", 0), 1024.0);
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("depth", 0), 4.0);
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("seed", 0), 7.0);
  // Every cell appears in exactly one magnitude bucket.
  EXPECT_EQ(HistogramTotal(snapshot.occupancy_log2), snapshot.cells);

  const double occupied = snapshot.FieldOr("occupied_fraction", -1);
  EXPECT_GT(occupied, 0.0);
  EXPECT_LE(occupied, 1.0);
  // ~10k distinct Zipf keys into width-1024 rows: heavily loaded, so the
  // balls-in-bins inversion must report far more keys than buckets and a
  // collision rate near 1.
  EXPECT_GT(snapshot.FieldOr("estimated_distinct_keys", 0), 1024.0);
  EXPECT_GT(snapshot.FieldOr("estimated_collision_rate", 0), 0.9);
  EXPECT_LE(snapshot.FieldOr("estimated_collision_rate", 0), 1.0);
}

TEST(IntrospectTest, OpCountersTrackLifetimeWhenEnabled) {
  CountMinSketch sketch(64, 3, 1);
  const auto stream = MakeZipfStream(1 << 10, 1.1, 1000, 2);
  sketch.ApplyBatch(stream);
  sketch.Update({5, 1});

  CountMinSketch other(64, 3, 1);
  other.Update({9, 2});
  sketch.Merge(other);

  const StatsSnapshot snapshot = sketch.Introspect();
  // Merge folds the other sketch's absorbed updates in.
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("updates", -1), 1002.0);
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("batches", -1), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("merges", -1), 1.0);
}

TEST(IntrospectTest, CountSketchAndAmsSnapshots) {
  const auto stream = MakeTurnstileStream(1 << 10, 1.0, 5000, 0.5, 2);

  CountSketch cs(512, 5, 3);
  cs.ApplyBatch(stream);
  const StatsSnapshot cs_snapshot = cs.Introspect();
  EXPECT_EQ(cs_snapshot.type, "CountSketch");
  EXPECT_EQ(cs_snapshot.cells, 512u * 5u);
  EXPECT_EQ(HistogramTotal(cs_snapshot.occupancy_log2), cs_snapshot.cells);
  EXPECT_GT(cs_snapshot.FieldOr("occupied_fraction", 0), 0.0);

  AmsSketch ams(256, 5, 4);
  ams.ApplyBatch(stream);
  const StatsSnapshot ams_snapshot = ams.Introspect();
  EXPECT_EQ(ams_snapshot.type, "AmsSketch");
  EXPECT_EQ(ams_snapshot.cells, 256u * 5u);
  EXPECT_GT(ams_snapshot.FieldOr("occupied_fraction", 0), 0.0);
}

TEST(IntrospectTest, BloomSnapshotEstimatesDistinctKeys) {
  BloomFilter filter(1 << 14, 5, 9);
  constexpr uint64_t kKeys = 1000;
  for (uint64_t k = 0; k < kKeys; ++k) filter.Insert(k * 7);

  const StatsSnapshot snapshot = filter.Introspect();
  EXPECT_EQ(snapshot.type, "BloomFilter");
  EXPECT_EQ(snapshot.cells, uint64_t{1} << 14);
  // Two-bucket occupancy: [clear, set], summing to the bit count.
  ASSERT_EQ(snapshot.occupancy_log2.size(), 2u);
  EXPECT_EQ(snapshot.occupancy_log2[0] + snapshot.occupancy_log2[1],
            snapshot.cells);
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("fill_ratio", -1),
                   filter.FillRatio());
  // The fill-ratio inversion should land within 15% of the true count.
  const double estimated = snapshot.FieldOr("estimated_distinct_keys", 0);
  EXPECT_NEAR(estimated, static_cast<double>(kKeys),
              0.15 * static_cast<double>(kKeys));
  EXPECT_GT(snapshot.FieldOr("current_fpr", -1), 0.0);
  EXPECT_LT(snapshot.FieldOr("current_fpr", 2), 1.0);
}

TEST(IntrospectTest, DyadicNestsOneChildPerLevel) {
  DyadicCountMin sketch(10, 128, 3, 5);
  sketch.UpdateAll(MakeZipfStream(1 << 10, 1.2, 5000, 6));

  const StatsSnapshot snapshot = sketch.Introspect();
  EXPECT_EQ(snapshot.type, "DyadicCountMin");
  ASSERT_EQ(snapshot.children.size(), 10u);
  EXPECT_EQ(snapshot.cells, sketch.SizeInCounters());
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("total_count", -1),
                   static_cast<double>(sketch.TotalCount()));
  uint64_t child_memory = 0;
  for (const StatsSnapshot& child : snapshot.children) {
    EXPECT_EQ(child.type, "CountMinSketch");
    child_memory += child.memory_bytes;
  }
  // Parent footprint covers all children (plus its own object body).
  EXPECT_GE(snapshot.memory_bytes, child_memory);
}

TEST(IntrospectTest, StreamSummaryNestsComponents) {
  StreamSummary::Options options;
  options.log_universe = 12;
  options.width = 256;
  options.verify_width = 512;
  StreamSummary summary(options);
  summary.UpdateAll(MakeZipfStream(1 << 12, 1.1, 4000, 8));

  const StatsSnapshot snapshot = summary.Introspect();
  EXPECT_EQ(snapshot.type, "StreamSummary");
  ASSERT_EQ(snapshot.children.size(), 3u);
  EXPECT_EQ(snapshot.children[0].type, "DyadicCountMin");
  EXPECT_EQ(snapshot.children[1].type, "CountSketch");
  EXPECT_EQ(snapshot.children[2].type, "AmsSketch");
  EXPECT_EQ(snapshot.cells, summary.SizeInCounters());
}

TEST(IntrospectTest, ShardedSketchNestsOneChildPerShard) {
  ThreadPool pool(4);
  ShardedSketch<CountMinSketch> sharded(CountMinSketch(256, 3, 11),
                                        /*num_shards=*/4, &pool);
  sharded.Ingest(MakeZipfStream(1 << 12, 1.1, 8000, 9));

  const StatsSnapshot snapshot = sharded.Introspect();
  EXPECT_EQ(snapshot.type, "ShardedSketch");
  EXPECT_DOUBLE_EQ(snapshot.FieldOr("num_shards", 0), 4.0);
  ASSERT_EQ(snapshot.children.size(), 4u);
  EXPECT_EQ(snapshot.cells, 4u * 256u * 3u);
  for (const StatsSnapshot& child : snapshot.children) {
    EXPECT_EQ(child.type, "CountMinSketch");
    // Ingest spreads work: every replica absorbed a share of the stream.
    EXPECT_GT(child.FieldOr("occupied_fraction", 0), 0.0);
  }
  // DebugString renders the whole tree.
  const std::string debug = sharded.DebugString();
  EXPECT_NE(debug.find("ShardedSketch"), std::string::npos);
  EXPECT_NE(debug.find("CountMinSketch"), std::string::npos);
}

// Schema golden: a hand-built snapshot with fixed values renders to these
// exact bytes in every build configuration.
TEST(IntrospectTest, ToJsonMatchesDocumentedSchema) {
  StatsSnapshot snapshot;
  snapshot.type = "Golden";
  snapshot.memory_bytes = 128;
  snapshot.cells = 16;
  snapshot.AddField("width", 8);
  snapshot.AddField("fraction", 0.5);
  snapshot.occupancy_log2 = {12, 3, 1};
  StatsSnapshot child;
  child.type = "Child";
  child.memory_bytes = 32;
  child.cells = 4;
  snapshot.children.push_back(child);

  EXPECT_EQ(snapshot.ToJson(),
            "{\"type\":\"Golden\",\"memory_bytes\":128,\"cells\":16,"
            "\"fields\":{\"width\":8,\"fraction\":0.5},"
            "\"occupancy_log2\":[12,3,1],"
            "\"children\":[{\"type\":\"Child\",\"memory_bytes\":32,"
            "\"cells\":4,\"fields\":{},\"occupancy_log2\":[],"
            "\"children\":[]}]}");
}

TEST(IntrospectTest, MagnitudeHistogramHandlesSignsAndExtremes) {
  const int64_t values[] = {0, 1, -1, 7, -8, INT64_MIN};
  const std::vector<uint64_t> histogram =
      telemetry::MagnitudeHistogram(values, 6);
  ASSERT_EQ(histogram.size(), 65u);  // INT64_MIN fills the last bucket
  EXPECT_EQ(histogram[0], 1u);       // the zero
  EXPECT_EQ(histogram[1], 2u);       // |1| and |-1|
  EXPECT_EQ(histogram[3], 1u);       // |7|
  EXPECT_EQ(histogram[4], 1u);       // |-8|
  EXPECT_EQ(histogram[64], 1u);      // |INT64_MIN| = 2^63
}

TEST(IntrospectTest, BallsInBinsHelpersAreSane) {
  // 63.2% occupancy is what one key per bucket produces in expectation:
  // the inversion must return ~width keys.
  const double keys = telemetry::EstimateDistinctKeys(0.632, 1000.0);
  EXPECT_NEAR(keys, 1000.0, 10.0);
  EXPECT_EQ(telemetry::EstimateDistinctKeys(0.0, 1000.0), 0.0);

  EXPECT_EQ(telemetry::EstimateCollisionRate(1.0, 1000.0), 0.0);
  const double low = telemetry::EstimateCollisionRate(10.0, 1000.0);
  const double high = telemetry::EstimateCollisionRate(5000.0, 1000.0);
  EXPECT_GT(low, 0.0);
  EXPECT_LT(low, 0.05);
  EXPECT_GT(high, 0.99);
}

}  // namespace
}  // namespace sketch
