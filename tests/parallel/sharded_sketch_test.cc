// Sharded-vs-sequential equivalence: ingesting a stream through the
// parallel sharded engine must give *exactly* the same sketch state —
// bit-identical counters, identical query answers — as sequential
// single-threaded ingestion, for every thread count. Linearity makes the
// shard-and-merge composition exact (see DESIGN.md, "Sharded ingestion"),
// so equality here is EXPECT_EQ, not a tolerance.

#include "parallel/sharded_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <latch>
#include <vector>

#include "common/thread_pool.h"
#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "stream/generators.h"

namespace sketch {
namespace {

constexpr uint64_t kUniverse = 1 << 14;
constexpr uint64_t kSeed = 99;

const std::vector<StreamUpdate>& ZipfStream() {
  static const auto* stream = new std::vector<StreamUpdate>(
      MakeZipfStream(kUniverse, 1.1, /*length=*/200000, kSeed));
  return *stream;
}

class ShardedSketchTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedSketchTest, CountMinMatchesSequentialBitForBit) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  const auto& stream = ZipfStream();

  CountMinSketch sequential(2048, 5, kSeed);
  sequential.ApplyBatch(stream);

  ShardedSketch<CountMinSketch> sharded(CountMinSketch(2048, 5, kSeed),
                                        &pool);
  EXPECT_EQ(sharded.num_shards(), threads);
  sharded.Ingest(stream);
  const CountMinSketch collapsed = sharded.Collapse();

  EXPECT_EQ(collapsed.Serialize(), sequential.Serialize());
  for (uint64_t item = 0; item < 1024; ++item) {
    ASSERT_EQ(collapsed.Estimate(item), sequential.Estimate(item));
  }
}

TEST_P(ShardedSketchTest, CountSketchMatchesSequentialBitForBit) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  const auto& stream = ZipfStream();

  CountSketch sequential(2048, 5, kSeed);
  sequential.ApplyBatch(stream);

  ShardedSketch<CountSketch> sharded(CountSketch(2048, 5, kSeed), &pool);
  sharded.Ingest(stream);
  EXPECT_EQ(sharded.Collapse().Serialize(), sequential.Serialize());
}

TEST_P(ShardedSketchTest, BloomFilterMatchesSequentialBitForBit) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  const auto& stream = ZipfStream();

  BloomFilter sequential(1 << 16, 5, kSeed);
  sequential.ApplyBatch(stream);

  ShardedSketch<BloomFilter> sharded(BloomFilter(1 << 16, 5, kSeed), &pool);
  sharded.Ingest(stream);
  EXPECT_EQ(sharded.Collapse().Serialize(), sequential.Serialize());
}

TEST_P(ShardedSketchTest, AmsMatchesSequentialF2) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  const auto& stream = ZipfStream();

  AmsSketch sequential(512, 5, kSeed);
  sequential.ApplyBatch(stream);

  ShardedSketch<AmsSketch> sharded(AmsSketch(512, 5, kSeed), &pool);
  sharded.Ingest(stream);
  EXPECT_EQ(sharded.Collapse().EstimateF2(), sequential.EstimateF2());
}

TEST_P(ShardedSketchTest, DyadicHeavyHittersMatchSequentialExactly) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  const auto& stream = ZipfStream();

  DyadicCountMin sequential(14, 1024, 4, kSeed);
  sequential.ApplyBatch(stream);

  ShardedSketch<DyadicCountMin> sharded(DyadicCountMin(14, 1024, 4, kSeed),
                                        &pool);
  sharded.Ingest(stream);
  const DyadicCountMin collapsed = sharded.Collapse();

  EXPECT_EQ(collapsed.TotalCount(), sequential.TotalCount());
  const auto threshold = static_cast<int64_t>(
      0.005 * static_cast<double>(sequential.TotalCount()));
  EXPECT_EQ(collapsed.HeavyHitters(threshold),
            sequential.HeavyHitters(threshold));
  for (uint64_t item = 0; item < 512; ++item) {
    ASSERT_EQ(collapsed.Estimate(item), sequential.Estimate(item));
  }
  EXPECT_EQ(collapsed.Quantile(0.9), sequential.Quantile(0.9));
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardedSketchTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ShardedSketchTest, RepeatedIngestAccumulates) {
  ThreadPool pool(4);
  const auto& stream = ZipfStream();
  const UpdateSpan all(stream);

  CountMinSketch sequential(1024, 4, kSeed);
  sequential.ApplyBatch(all);

  ShardedSketch<CountMinSketch> sharded(CountMinSketch(1024, 4, kSeed),
                                        &pool);
  // Feed the same stream in many unevenly-sized batches.
  size_t offset = 0;
  size_t batch = 1;
  while (offset < all.size()) {
    const size_t len = std::min(batch, all.size() - offset);
    sharded.Ingest(all.subspan(offset, len));
    offset += len;
    batch = batch * 3 + 1;
  }
  EXPECT_EQ(sharded.Collapse().Serialize(), sequential.Serialize());
}

TEST(ShardedSketchTest, CollapseIsNonDestructiveAndRepeatable) {
  ThreadPool pool(2);
  const auto& stream = ZipfStream();

  ShardedSketch<CountMinSketch> sharded(CountMinSketch(1024, 4, kSeed),
                                        &pool);
  sharded.Ingest(stream);
  const auto first = sharded.Collapse().Serialize();
  const auto second = sharded.Collapse().Serialize();
  EXPECT_EQ(first, second);
}

TEST(ShardedSketchTest, NullPoolRunsInline) {
  const auto& stream = ZipfStream();
  CountMinSketch sequential(1024, 4, kSeed);
  sequential.ApplyBatch(stream);

  ShardedSketch<CountMinSketch> sharded(CountMinSketch(1024, 4, kSeed),
                                        /*pool=*/nullptr);
  EXPECT_EQ(sharded.num_shards(), 1u);
  sharded.Ingest(stream);
  EXPECT_EQ(sharded.Collapse().Serialize(), sequential.Serialize());
}

TEST(ShardedSketchTest, MoreShardsThanPoolThreadsStillExact) {
  ThreadPool pool(2);
  const auto& stream = ZipfStream();
  CountMinSketch sequential(1024, 4, kSeed);
  sequential.ApplyBatch(stream);

  ShardedSketch<CountMinSketch> sharded(CountMinSketch(1024, 4, kSeed),
                                        /*num_shards=*/7, &pool);
  sharded.Ingest(stream);
  EXPECT_EQ(sharded.Collapse().Serialize(), sequential.Serialize());
}

TEST(ShardedSketchTest, WorkActuallySpreadsAcrossShards) {
  ThreadPool pool(4);
  const auto& stream = ZipfStream();
  ShardedSketch<CountMinSketch> sharded(CountMinSketch(1024, 4, kSeed),
                                        &pool);
  sharded.Ingest(stream);
  // Every replica saw roughly |stream| / num_shards updates; in
  // particular no replica is empty (an empty Count-Min has all-zero rows
  // and total mass 0 in row 0).
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    int64_t row0_mass = 0;
    for (uint64_t b = 0; b < sharded.shard(s).width(); ++b) {
      row0_mass += sharded.shard(s).CounterAt(0, b);
    }
    EXPECT_GT(row0_mass, 0) << "shard " << s << " never ingested";
  }
}

TEST(ShardedSketchTest, IngestDoesNotWaitForUnrelatedTasks) {
  // Two sketches (or any other work) on one pool must not wait on each
  // other: with one worker of a 2-thread pool parked by an unrelated task,
  // Ingest and Collapse still return, running on the caller and the free
  // worker.
  ThreadPool pool(2);
  std::latch parked(1);
  std::latch release(1);
  pool.Submit([&] {
    parked.count_down();
    release.wait();
  });
  parked.wait();
  const auto& stream = ZipfStream();
  CountMinSketch sequential(1024, 4, kSeed);
  sequential.ApplyBatch(stream);
  ShardedSketch<CountMinSketch> sharded(CountMinSketch(1024, 4, kSeed),
                                        /*num_shards=*/4, &pool);
  auto call = std::async(std::launch::async, [&] {
    sharded.Ingest(stream);
    return sharded.Collapse().Serialize();
  });
  const bool returned =
      call.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Release the parked task either way, so a regression fails the test
  // instead of hanging it.
  release.count_down();
  const std::vector<uint8_t> collapsed = call.get();
  EXPECT_TRUE(returned) << "Ingest waited for a task it did not submit";
  EXPECT_EQ(collapsed, sequential.Serialize());
}

}  // namespace
}  // namespace sketch
