#include "sketch/stream_summary.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "stream/frequency_oracle.h"
#include "stream/generators.h"
#include "stream/traffic_model.h"

namespace sketch {
namespace {

StreamSummary::Options DefaultOptions() {
  StreamSummary::Options options;
  options.log_universe = 16;
  options.seed = 3;
  return options;
}

TEST(StreamSummaryTest, PointEstimatesTrackTruth) {
  StreamSummary summary(DefaultOptions());
  const auto updates = MakeZipfStream(1 << 16, 1.2, 50000, 1);
  FrequencyOracle oracle;
  summary.UpdateAll(updates);
  oracle.UpdateAll(updates);
  EXPECT_EQ(summary.TotalCount(), 50000);
  for (uint64_t item : oracle.TopK(50)) {
    const double truth = static_cast<double>(oracle.Count(item));
    EXPECT_NEAR(static_cast<double>(summary.EstimateCount(item)), truth,
                0.02 * 50000 + 0.05 * truth)
        << "item " << item;
  }
}

TEST(StreamSummaryTest, HeavyHittersHaveFullRecallAndHighPrecision) {
  StreamSummary summary(DefaultOptions());
  const auto updates = MakeZipfStream(1 << 16, 1.3, 80000, 2);
  FrequencyOracle oracle;
  summary.UpdateAll(updates);
  oracle.UpdateAll(updates);
  const double phi = 0.002;
  const auto truth =
      oracle.ItemsAbove(static_cast<int64_t>(phi * 80000));
  const auto found = summary.HeavyHitters(phi);
  const PrecisionRecall pr = ComputePrecisionRecall(found, truth);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  EXPECT_GE(pr.precision, 0.9);  // CS verification suppresses CM ghosts
}

TEST(StreamSummaryTest, QuantilesAndRangesAreConsistent) {
  StreamSummary summary(DefaultOptions());
  summary.UpdateAll(MakeUniformStream(1 << 16, 60000, 3));
  const uint64_t median = summary.Quantile(0.5);
  EXPECT_NEAR(static_cast<double>(median), (1 << 16) / 2.0,
              0.05 * (1 << 16));
  EXPECT_GE(summary.RangeCount(0, median), 60000 / 2 - 3000);
}

TEST(StreamSummaryTest, F2MatchesOracle) {
  StreamSummary summary(DefaultOptions());
  const auto updates = MakeZipfStream(1 << 14, 1.1, 40000, 4);
  FrequencyOracle oracle;
  summary.UpdateAll(updates);
  oracle.UpdateAll(updates);
  double f2 = 0.0;
  for (const auto& [item, count] : oracle.counts()) {
    f2 += static_cast<double>(count) * static_cast<double>(count);
  }
  EXPECT_NEAR(summary.EstimateF2() / f2, 1.0, 0.2);
}

TEST(StreamSummaryTest, ShardedMergeEqualsSingleSummary) {
  const auto part1 = MakeZipfStream(1 << 16, 1.2, 20000, 5);
  const auto part2 = MakeZipfStream(1 << 16, 1.2, 20000, 6);
  StreamSummary a(DefaultOptions());
  StreamSummary b(DefaultOptions());
  StreamSummary whole(DefaultOptions());
  a.UpdateAll(part1);
  b.UpdateAll(part2);
  whole.UpdateAll(part1);
  whole.UpdateAll(part2);
  a.Merge(b);
  EXPECT_EQ(a.TotalCount(), whole.TotalCount());
  EXPECT_DOUBLE_EQ(a.EstimateF2(), whole.EstimateF2());
  for (uint64_t item = 0; item < 200; ++item) {
    EXPECT_EQ(a.EstimateCount(item), whole.EstimateCount(item));
  }
  EXPECT_EQ(a.HeavyHitters(0.001), whole.HeavyHitters(0.001));
}

TEST(StreamSummaryTest, SupportsDeletions) {
  StreamSummary summary(DefaultOptions());
  summary.Update({42, 100});
  summary.Update({42, -100});
  EXPECT_EQ(summary.TotalCount(), 0);
  EXPECT_EQ(summary.EstimateCount(42), 0);
}

TEST(StreamSummaryTest, WorksOnRealisticTraffic) {
  TrafficModelOptions traffic;
  traffic.num_flows = 3000;
  traffic.flow_id_space = 1ULL << 16;
  traffic.max_flow_packets = 1 << 14;
  traffic.seed = 8;
  const TrafficTrace trace = GenerateTrafficTrace(traffic);
  StreamSummary summary(DefaultOptions());
  summary.UpdateAll(trace.packets);
  FrequencyOracle oracle;
  oracle.UpdateAll(trace.packets);
  const double phi = 0.005;
  const auto truth = oracle.ItemsAbove(
      static_cast<int64_t>(phi * static_cast<double>(trace.total_packets)));
  const PrecisionRecall pr =
      ComputePrecisionRecall(summary.HeavyHitters(phi), truth);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
}

TEST(StreamSummaryTest, SizeIsSumOfParts) {
  StreamSummary summary(DefaultOptions());
  EXPECT_GT(summary.SizeInCounters(), 0u);
  // Far smaller than one counter per universe item.
  EXPECT_LT(summary.SizeInCounters(), 1u << 18);
}

TEST(StreamSummaryTest, SerializedSizeBytesIsTheSerializedLength) {
  for (int log_universe : {1, 12, 20}) {
    StreamSummary::Options options;
    options.log_universe = log_universe;
    options.width = 16;
    options.depth = 4;
    options.verify_width = 32;
    const StreamSummary summary(options);
    EXPECT_EQ(summary.SerializedSizeBytes(), summary.Serialize().size())
        << "log_universe " << log_universe;
  }
}

}  // namespace
}  // namespace sketch
