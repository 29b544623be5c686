// Merge-linearity property tests: for every mergeable sketch,
// sketch(A ++ B) and Merge(sketch(A), sketch(B)) must agree
// *bit-identically* — same counters, same query answers — for any split
// of the stream and any seed. This is the linearity property (survey §1)
// that makes the sharded ingestion engine in `src/parallel` exact rather
// than approximate, so it gets pinned down here per sketch, across
// randomized shard splits and seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/prng.h"

#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "sketch/stream_summary.h"
#include "stream/generators.h"

namespace sketch {
namespace {

constexpr uint64_t kUniverse = 1 << 14;

std::vector<StreamUpdate> TestStream(uint64_t seed) {
  // Turnstile stream so the property is exercised with deletions too.
  return MakeTurnstileStream(kUniverse, 1.1, /*insert_count=*/20000,
                             /*delete_fraction=*/0.25, seed);
}

// Random cut points for a `parts`-way contiguous split of [0, n).
std::vector<size_t> RandomCuts(size_t n, size_t parts, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<size_t> cuts{0, n};
  for (size_t i = 0; i + 1 < parts; ++i) {
    cuts.push_back(static_cast<size_t>(rng.NextBounded(n + 1)));
  }
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

// Builds `Make()`-produced sketches over each piece of a random split,
// merges them left-to-right, and returns the pair (merged, whole-stream).
template <typename S, typename MakeFn>
std::pair<S, S> MergedAndWhole(const std::vector<StreamUpdate>& stream,
                               size_t parts, uint64_t split_seed,
                               MakeFn make) {
  const std::vector<size_t> cuts =
      RandomCuts(stream.size(), parts, split_seed);
  const UpdateSpan all(stream);
  S merged = make();
  {
    S first = make();
    first.ApplyBatch(all.subspan(cuts[0], cuts[1] - cuts[0]));
    merged = first;
  }
  for (size_t p = 1; p + 1 < cuts.size(); ++p) {
    S piece = make();
    piece.ApplyBatch(all.subspan(cuts[p], cuts[p + 1] - cuts[p]));
    merged.Merge(piece);
  }
  S whole = make();
  whole.ApplyBatch(all);
  return {merged, whole};
}

class MergeLinearityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeLinearityTest, CountMinBitIdentical) {
  const uint64_t seed = GetParam();
  const auto stream = TestStream(seed);
  for (size_t parts : {2, 3, 8}) {
    auto [merged, whole] = MergedAndWhole<CountMinSketch>(
        stream, parts, /*split_seed=*/seed * 31 + parts,
        [&] { return CountMinSketch(512, 4, seed); });
    // Serialize() captures geometry, seed, and every counter, so byte
    // equality is counter-for-counter bit identity.
    EXPECT_EQ(merged.Serialize(), whole.Serialize()) << "parts=" << parts;
    EXPECT_EQ(merged.Estimate(stream[0].item), whole.Estimate(stream[0].item));
  }
}

TEST_P(MergeLinearityTest, CountSketchBitIdentical) {
  const uint64_t seed = GetParam();
  const auto stream = TestStream(seed);
  for (size_t parts : {2, 5}) {
    auto [merged, whole] = MergedAndWhole<CountSketch>(
        stream, parts, seed * 17 + parts,
        [&] { return CountSketch(512, 5, seed); });
    EXPECT_EQ(merged.Serialize(), whole.Serialize()) << "parts=" << parts;
    for (uint64_t item = 0; item < 64; ++item) {
      ASSERT_EQ(merged.Estimate(item), whole.Estimate(item));
    }
  }
}

TEST_P(MergeLinearityTest, BloomFilterBitIdentical) {
  const uint64_t seed = GetParam();
  const auto stream = TestStream(seed);
  for (size_t parts : {2, 4}) {
    auto [merged, whole] = MergedAndWhole<BloomFilter>(
        stream, parts, seed * 13 + parts,
        [&] { return BloomFilter(1 << 14, 5, seed); });
    // Bloom merge is bitwise OR of set bits; the union filter must equal
    // the filter of the union exactly.
    EXPECT_EQ(merged.Serialize(), whole.Serialize()) << "parts=" << parts;
    for (uint64_t item = 0; item < 256; ++item) {
      ASSERT_EQ(merged.MayContain(item), whole.MayContain(item));
    }
  }
}

TEST_P(MergeLinearityTest, AmsIdenticalF2) {
  const uint64_t seed = GetParam();
  const auto stream = TestStream(seed);
  auto [merged, whole] = MergedAndWhole<AmsSketch>(
      stream, /*parts=*/4, seed * 7 + 4,
      [&] { return AmsSketch(256, 5, seed); });
  // EstimateF2 is a deterministic function of the counters, so exact
  // (not approximate) equality here certifies identical counter state.
  EXPECT_EQ(merged.EstimateF2(), whole.EstimateF2());
}

TEST_P(MergeLinearityTest, DyadicCountMinIdenticalAnswers) {
  const uint64_t seed = GetParam();
  const auto stream = TestStream(seed);
  auto [merged, whole] = MergedAndWhole<DyadicCountMin>(
      stream, /*parts=*/3, seed * 11 + 3,
      [&] { return DyadicCountMin(14, 512, 4, seed); });
  EXPECT_EQ(merged.TotalCount(), whole.TotalCount());
  for (uint64_t item = 0; item < 512; ++item) {
    ASSERT_EQ(merged.Estimate(item), whole.Estimate(item));
  }
  EXPECT_EQ(merged.RangeSum(0, kUniverse / 2), whole.RangeSum(0, kUniverse / 2));
  EXPECT_EQ(merged.Quantile(0.5), whole.Quantile(0.5));
  const auto threshold =
      static_cast<int64_t>(0.01 * static_cast<double>(whole.TotalCount()));
  EXPECT_EQ(merged.HeavyHitters(threshold), whole.HeavyHitters(threshold));
}

TEST_P(MergeLinearityTest, StreamSummaryIdenticalAnswers) {
  const uint64_t seed = GetParam();
  const auto stream = TestStream(seed);
  StreamSummary::Options options;
  options.log_universe = 14;
  options.seed = seed;
  auto [merged, whole] = MergedAndWhole<StreamSummary>(
      stream, /*parts=*/2, seed * 5 + 2,
      [&] { return StreamSummary(options); });
  for (uint64_t item = 0; item < 256; ++item) {
    ASSERT_EQ(merged.EstimateCount(item), whole.EstimateCount(item));
  }
  EXPECT_EQ(merged.HeavyHitters(0.01), whole.HeavyHitters(0.01));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeLinearityTest,
                         ::testing::Values(1, 7, 42, 1234567));

// --- Counters past the int64_t range ---------------------------------------
//
// Counter values can come from a client (a restored snapshot, an ingested
// delta), so counter arithmetic is modular: a merge or an update that
// leaves the int64_t range wraps mod 2^64 instead of being undefined
// behaviour, and the merged state still equals sequential replay.

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

// Item 7 reaches 2 * kMax + 1, which wraps to -1; item 9 carries kMin,
// which a -1 sign maps to -kMin, which wraps to kMin.
const std::vector<StreamUpdate> kLeftWrap = {{7, kMax}};
const std::vector<StreamUpdate> kRightWrap = {{7, 1}, {7, kMax}, {9, kMin}};

template <typename Sketch>
void ExpectMergeWrapsLikeReplay(const Sketch& prototype) {
  Sketch left = prototype;
  Sketch right = prototype;
  Sketch replay = prototype;
  for (const StreamUpdate& u : kLeftWrap) left.Update(u);
  right.ApplyBatch(kRightWrap);
  for (const StreamUpdate& u : kLeftWrap) replay.Update(u);
  for (const StreamUpdate& u : kRightWrap) replay.Update(u);
  left.Merge(right);
  EXPECT_EQ(left.Serialize(), replay.Serialize());
  left.Merge(left);  // every counter doubled, most past the range
  replay.Merge(replay);
  EXPECT_EQ(left.Serialize(), replay.Serialize());
}

/// Each row's sum of squared counters, mod 2^64, computed in uint64_t and
/// sorted: the self inner product's per-row terms.
template <typename Sketch>
std::vector<int64_t> SortedRowSelfProducts(const Sketch& sketch) {
  std::vector<int64_t> rows;
  for (uint64_t j = 0; j < sketch.depth(); ++j) {
    uint64_t sum = 0;
    for (uint64_t b = 0; b < sketch.width(); ++b) {
      const auto c = static_cast<uint64_t>(sketch.CounterAt(j, b));
      sum += c * c;
    }
    rows.push_back(static_cast<int64_t>(sum));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(MergeWrapTest, CountMinCountersWrapLikeReplay) {
  CountMinSketch sketch(64, 4, 11);
  ExpectMergeWrapsLikeReplay(sketch);
  for (const StreamUpdate& u : kLeftWrap) sketch.Update(u);
  sketch.ApplyBatch(kRightWrap);
  EXPECT_LE(sketch.Estimate(7), -1);  // 2 * kMax + 1 wrapped
  EXPECT_EQ(sketch.EstimateInnerProduct(sketch),
            SortedRowSelfProducts(sketch).front());  // min over rows
}

TEST(MergeWrapTest, CountSketchCountersWrapLikeReplay) {
  CountSketch sketch(64, 5, 11);
  ExpectMergeWrapsLikeReplay(sketch);
  for (const StreamUpdate& u : kLeftWrap) sketch.Update(u);
  sketch.ApplyBatch(kRightWrap);
  const std::vector<uint64_t> items = {7, 9};
  std::vector<int64_t> batch(items.size());
  sketch.EstimateBatch(items.data(), items.size(), batch.data());
  EXPECT_EQ(batch[0], sketch.Estimate(7));
  EXPECT_EQ(batch[1], sketch.Estimate(9));
  EXPECT_EQ(sketch.EstimateInnerProduct(sketch),
            SortedRowSelfProducts(sketch)[2]);  // median of 5 rows
}

TEST(MergeWrapTest, AmsCountersWrapLikeReplay) {
  ExpectMergeWrapsLikeReplay(AmsSketch(64, 5, 11));
}

TEST(MergeWrapTest, DyadicTotalWrapsLikeReplay) {
  DyadicCountMin sketch(10, 64, 4, 11);
  ExpectMergeWrapsLikeReplay(sketch);
  for (const StreamUpdate& u : kLeftWrap) sketch.Update(u);
  sketch.ApplyBatch(kRightWrap);
  // kMax + 1 + kMax + kMin, mod 2^64.
  EXPECT_EQ(sketch.TotalCount(), kMax);
}

}  // namespace
}  // namespace sketch
