// Concurrency stress: many client threads, each on its own connection to
// the epoll event loop (LoopHarness, several I/O threads), hammer one
// shared sketch with ingest batches while reader threads fire point
// queries the whole time. Because every served sketch is a linear
// function of the update stream and the service serializes sketch
// access, the final state must be *bit-identical* to a sequential replay
// of the same updates into a local sketch — Serialize() equality, not
// just query-level agreement. Runs under TSan in CI, so it also doubles
// as a data-race detector for the event-loop/service/transport stack,
// including the cached error-bound scans that concurrent readers fill
// under the shared entry lock.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fresh_bound.h"
#include "gtest/gtest.h"
#include "loop_harness.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/sketch_service.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/update.h"

namespace sketch::server {
namespace {

constexpr int kWriters = 4;
constexpr uint64_t kBatchesPerWriter = 20;
constexpr uint64_t kBatchSize = 256;
constexpr uint64_t kUniverse = 1 << 12;
// Enough I/O threads that writers and readers reach the service
// concurrently rather than taking turns on one loop.
constexpr std::size_t kIoThreads = 8;

/// The deterministic batch written by `writer` at step `step`: disjoint
/// (writer, step) pairs produce different updates, and the full multiset
/// is reproducible for the sequential replay.
std::vector<StreamUpdate> BatchFor(int writer, uint64_t step) {
  std::vector<StreamUpdate> batch;
  batch.reserve(kBatchSize);
  for (uint64_t i = 0; i < kBatchSize; ++i) {
    const uint64_t n =
        static_cast<uint64_t>(writer) * 1000003 + step * 8191 + i;
    batch.push_back({n % kUniverse, static_cast<int64_t>(n % 5) + 1});
  }
  return batch;
}

/// Per-answer sanity under concurrency. Count-Min (L1-bounded) answers
/// never fall below zero on this nonnegative stream; Count-Sketch answers
/// may, but their L2 bound is finite and nonnegative.
void ExpectPlausible(const PointValueResponse& value) {
  if (value.bound_kind == BoundKind::kL1) {
    ASSERT_GE(value.estimate, 0);
  } else {
    ASSERT_EQ(value.bound_kind, BoundKind::kL2);
    ASSERT_TRUE(std::isfinite(value.error_bound));
    ASSERT_GE(value.error_bound, 0.0);
  }
}

/// Runs the concurrent ingest+query workload against `name` with
/// `point_readers` threads issuing PointQuery and `batch_readers` issuing
/// PointQueryBatch, then returns the server's final snapshot of it.
std::vector<uint8_t> RunWorkload(LoopHarness* server, const std::string& name,
                                 int point_readers = 1, int batch_readers = 1) {
  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([server, &name, w] {
      const auto client = server->Connect();
      for (uint64_t step = 0; step < kBatchesPerWriter; ++step) {
        const std::vector<StreamUpdate> batch = BatchFor(w, step);
        uint64_t accepted = 0;
        ASSERT_TRUE(client->Ingest(name, UpdateSpan(batch), &accepted));
        ASSERT_EQ(accepted, batch.size());
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < point_readers + batch_readers; ++r) {
    const bool batched = r >= point_readers;
    readers.emplace_back([server, &name, &done, &queries, batched] {
      const auto client = server->Connect();
      uint64_t item = 0;
      // do-while: every reader answers at least one query even when the
      // writers all finish before it is first scheduled (a loaded host).
      do {
        if (!batched) {
          PointValueResponse value;
          ASSERT_TRUE(client->PointQuery(name, item % kUniverse, &value));
          ExpectPlausible(value);
        } else {
          // Batched read path: shares the same (shared) entry lock and
          // must be race-free against concurrent exclusive ingests.
          std::vector<uint64_t> keys;
          for (uint64_t k = 0; k < 8; ++k) {
            keys.push_back((item + k) % kUniverse);
          }
          std::vector<PointValueResponse> values;
          ASSERT_TRUE(client->PointQueryBatch(name, keys, &values));
          ASSERT_EQ(values.size(), keys.size());
          for (const PointValueResponse& value : values) {
            ExpectPlausible(value);
            // One bound per batch: a batch never straddles a cache refill.
            ASSERT_EQ(value.error_bound, values.front().error_bound);
          }
        }
        ++item;
        queries.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_relaxed));
    });
  }

  for (std::thread& t : writers) t.join();
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(queries.load(), 0u);

  const auto client = server->Connect();
  std::vector<uint8_t> blob;
  EXPECT_TRUE(client->Snapshot(name, &blob));
  return blob;
}

/// The same updates applied sequentially to a local sketch, in writer-major
/// order. Order is irrelevant to the final counters (the sketch is
/// linear), which is exactly why bit-identity is a fair assertion.
template <typename Sketch>
std::vector<uint8_t> SequentialReplay(uint64_t width, uint64_t depth,
                                      uint64_t seed) {
  Sketch local(width, depth, seed);
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t step = 0; step < kBatchesPerWriter; ++step) {
      local.UpdateAll(BatchFor(w, step));
    }
  }
  return local.Serialize();
}

TEST(ServerStressTest, ConcurrentIngestMatchesSequentialReplayCountMin) {
  LoopHarness server({}, kIoThreads);
  const auto admin = server.Connect();
  ASSERT_TRUE(admin->CreateSketch("stress", SketchType::kCountMin,
                                  {1024, 4, 77, 0, 0}));
  const std::vector<uint8_t> served = RunWorkload(&server, "stress");
  EXPECT_EQ(served, SequentialReplay<CountMinSketch>(1024, 4, 77));
}

TEST(ServerStressTest, ConcurrentIngestMatchesSequentialReplaySharded) {
  LoopHarness server({}, kIoThreads);
  const auto admin = server.Connect();
  ASSERT_TRUE(admin->CreateSketch("stress-sharded", SketchType::kShardedCountMin,
                                  {1024, 4, 77, 4, 0}));
  const std::vector<uint8_t> served = RunWorkload(&server, "stress-sharded");
  // A sharded sketch collapses to the same counters: merge-linearity
  // makes the snapshot bit-identical to the unsharded sequential replay.
  EXPECT_EQ(served, SequentialReplay<CountMinSketch>(1024, 4, 77));
}

TEST(ServerStressTest, ConcurrentIngestMatchesSequentialReplayCountSketch) {
  // One point reader and three batched readers race to refill the cached
  // F2 scan after every ingest. The final state must still match the
  // replay, and the bound served afterwards must equal a fresh scan of
  // that state bit for bit.
  LoopHarness server({}, kIoThreads);
  const auto admin = server.Connect();
  ASSERT_TRUE(admin->CreateSketch("stress-cs", SketchType::kCountSketch,
                                  {1024, 4, 77, 0, 0}));
  const std::vector<uint8_t> served = RunWorkload(&server, "stress-cs", 1, 3);
  EXPECT_EQ(served, SequentialReplay<CountSketch>(1024, 4, 77));

  std::vector<PointValueResponse> values;
  ASSERT_TRUE(admin->PointQueryBatch("stress-cs", {1, 2, 3}, &values));
  ASSERT_EQ(values.size(), 3u);
  for (const PointValueResponse& value : values) {
    EXPECT_EQ(value.error_bound, FreshCountSketchBound(served));
  }
}

TEST(ServerStressTest, SharedLocksMatchExclusiveOracleBitIdentically) {
  // The read path takes shared entry locks; writers take them
  // exclusively. A concurrent mixed query/ingest workload (point, batched
  // and statsz readers against concurrent writers) must leave a snapshot
  // bit-identical to the sequential replay, which is the one-at-a-time
  // oracle: shared locking must change scheduling only, never observable
  // sketch state. Under TSan this is also the data-race certificate for
  // the reader-writer locking itself.
  LoopHarness server({}, kIoThreads);
  const auto admin = server.Connect();
  ASSERT_TRUE(admin->CreateSketch("oracle", SketchType::kCountMin,
                                  {1024, 4, 77, 0, 0}));
  std::atomic<bool> done{false};
  std::thread statsz_reader([&server, &done] {
    const auto client = server.Connect();
    while (!done.load(std::memory_order_relaxed)) {
      std::string json;
      ASSERT_TRUE(client->Statsz(&json));
      ASSERT_NE(json.find("\"oracle\""), std::string::npos);
    }
  });
  const std::vector<uint8_t> served = RunWorkload(&server, "oracle");
  done.store(true);
  statsz_reader.join();
  EXPECT_EQ(served, SequentialReplay<CountMinSketch>(1024, 4, 77));
}

TEST(ServerStressTest, RegistryChurnWhileQuerying) {
  // Create/drop churn on other names must never perturb the sketch under
  // test or race the registry.
  LoopHarness server({}, kIoThreads);
  const auto admin = server.Connect();
  ASSERT_TRUE(admin->CreateSketch("anchor", SketchType::kCountMin,
                                  {512, 4, 5, 0, 0}));
  std::atomic<bool> done{false};
  std::thread churn([&server, &done] {
    const auto client = server.Connect();
    int round = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const std::string name = "churn-" + std::to_string(round % 8);
      client->CreateSketch(name, SketchType::kBloom, {512, 3, 1, 0, 0});
      client->DropSketch(name);
      ++round;
    }
  });
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(admin->Ingest(
        "anchor", UpdateSpan(std::vector<StreamUpdate>{{i % 64, 1}})));
    PointValueResponse value;
    ASSERT_TRUE(admin->PointQuery("anchor", i % 64, &value));
    ASSERT_GE(value.estimate, 1);
  }
  done.store(true);
  churn.join();
  PointValueResponse value;
  ASSERT_TRUE(admin->PointQuery("anchor", 0, &value));
  EXPECT_GE(value.estimate, 8);  // 500 updates over 64 items
}

}  // namespace
}  // namespace sketch::server
