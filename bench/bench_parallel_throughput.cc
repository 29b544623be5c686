// E21: parallel sharded ingestion scaling — updates/sec and merge
// latency of ShardedSketch vs. thread count, plus an exactness check
// against sequential ingestion (linearity makes shard-and-merge exact;
// see DESIGN.md "Sharded ingestion").
//
// Sweeps threads in {1, 2, 4, 8} over a Zipf(1.1) stream for Count-Min,
// Count-Sketch, and Bloom. The 1-thread ShardedSketch row uses the pool
// with a single worker, so the speedup column isolates parallelism from
// batching effects; a separate baseline row reports plain sequential
// ApplyBatch on the calling thread.
//
// E29: the same fan-out at served frame sizes, which decides whether the
// daemon should shard a kShardedCountMin sketch (it serves one flat table).
// One flat depth-4 Count-Min against 4 shards on a 4-thread pool, fed the
// stream in frames of 4096, 65536 and 262144 updates (one Ingest request
// each): ingest only, ingest plus one point query per frame (the sharded
// table collapses and merges a restored base before answering), and two
// writers with a table each sharing the pool.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_reporter.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/wrapping.h"
#include "parallel/sharded_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"

namespace sketch {
namespace {

constexpr uint64_t kUniverse = 1 << 20;
constexpr uint64_t kLength = 1 << 22;  // 4M updates
constexpr uint64_t kSeed = 1;
constexpr int kReps = 3;  // best-of to damp scheduler noise

struct RunResult {
  double ingest_mups = 0;  // millions of updates per second
  double merge_ms = 0;
  bool exact = false;
};

template <typename S, typename MakeFn, typename SameFn>
RunResult RunSharded(const std::vector<StreamUpdate>& stream, size_t threads,
                     MakeFn make, SameFn same_as_sequential) {
  RunResult result;
  ThreadPool pool(threads);
  for (int rep = 0; rep < kReps; ++rep) {
    ShardedSketch<S> sharded(make(), &pool);
    Timer timer;
    sharded.Ingest(stream);
    const double ingest_s = timer.ElapsedSeconds();
    timer.Reset();
    const S collapsed = sharded.Collapse();
    const double merge_ms = timer.ElapsedMillis();
    const double mups =
        static_cast<double>(stream.size()) / ingest_s / 1e6;
    if (rep == 0 || mups > result.ingest_mups) {
      result.ingest_mups = mups;
      result.merge_ms = merge_ms;
    }
    result.exact = same_as_sequential(collapsed);
  }
  return result;
}

template <typename S, typename MakeFn, typename SerializeFn>
void Sweep(const char* name, const std::vector<StreamUpdate>& stream,
           MakeFn make, SerializeFn serialize,
           bench::BenchReporter* reporter) {
  // Sequential baseline: plain ApplyBatch on the calling thread.
  S sequential = make();
  double baseline_mups = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    S fresh = make();
    Timer timer;
    fresh.ApplyBatch(stream);
    const double mups =
        static_cast<double>(stream.size()) / timer.ElapsedSeconds() / 1e6;
    if (mups > baseline_mups) baseline_mups = mups;
    if (rep == 0) sequential = fresh;
  }
  const auto sequential_bytes = serialize(sequential);

  bench::Row("%-12s %8s %12s %10s %10s %8s", name, "threads",
             "updates/s(M)", "speedup", "merge(ms)", "exact");
  bench::Row("%-12s %8s %12.2f %10s %10s %8s", name, "seq", baseline_mups,
             "1.00x", "-", "-");
  double one_thread_mups = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    const RunResult r = RunSharded<S>(
        stream, threads, make, [&](const S& collapsed) {
          return serialize(collapsed) == sequential_bytes;
        });
    if (threads == 1) one_thread_mups = r.ingest_mups;
    bench::Row("%-12s %8zu %12.2f %9.2fx %10.3f %8s", name, threads,
               r.ingest_mups, r.ingest_mups / baseline_mups, r.merge_ms,
               r.exact ? "yes" : "NO");
    reporter->Add("E21/" + std::string(name) + "/Ingest/" +
                      std::to_string(threads) + "t",
                  r.ingest_mups * 1e6, 1e3 / r.ingest_mups);
    if (threads == 8) {
      bench::Row("%-12s 8-vs-1-thread scaling: %.2fx", name,
                 r.ingest_mups / one_thread_mups);
    }
  }
}

// --- E29: served frames -----------------------------------------------------

constexpr uint64_t kServedUpdates = 1 << 20;  // per writer per run
constexpr uint64_t kServedDepth = 4;
constexpr std::size_t kServedShards = 4;
constexpr int kServedPairs = 9;  // alternating flat/sharded runs

/// A served kCountMin table: ingest and answer in place.
struct FlatTable {
  explicit FlatTable(const CountMinSketch& prototype) : sketch(prototype) {}
  void Ingest(UpdateSpan frame) { sketch.ApplyBatch(frame); }
  int64_t Query(uint64_t item) const { return sketch.Estimate(item); }
  std::vector<uint8_t> Bytes() const { return sketch.Serialize(); }

  CountMinSketch sketch;
};

/// A sharded table as a served entry would hold one: ingest fans out
/// across the shards; a query answers from the shards collapsed with the
/// (here empty) restored base.
struct ShardedTable {
  ShardedTable(const CountMinSketch& prototype, ThreadPool* pool)
      : sharded(prototype, kServedShards, pool), base(prototype) {}
  void Ingest(UpdateSpan frame) { sharded.Ingest(frame); }
  int64_t Query(uint64_t item) const { return View().Estimate(item); }
  std::vector<uint8_t> Bytes() const { return View().Serialize(); }
  CountMinSketch View() const {
    CountMinSketch view = sharded.Collapse();
    view.Merge(base);
    return view;
  }

  ShardedSketch<CountMinSketch> sharded;
  CountMinSketch base;
};

struct ServedResult {
  double seconds = 0;          // wall time of the run
  std::vector<uint8_t> bytes;  // the first writer's final table
  int64_t answers = 0;         // sum of every query answer, wrapping
};

/// Serves the first kServedUpdates of `stream` in frames of `frame_len`
/// to `writers` fresh tables made by `make`, one writer thread each (the
/// calling thread when there is one), with a point query after every
/// frame when `query` is set.
template <typename MakeFn>
ServedResult Serve(const std::vector<StreamUpdate>& stream,
                   std::size_t frame_len, int writers, bool query,
                   MakeFn make) {
  const UpdateSpan all(stream.data(), kServedUpdates);
  std::vector<decltype(make())> tables;
  for (int w = 0; w < writers; ++w) tables.push_back(make());
  std::vector<int64_t> answers(static_cast<std::size_t>(writers), 0);
  const auto write = [&](int w) {
    auto& table = tables[static_cast<std::size_t>(w)];
    for (std::size_t at = 0; at < all.size(); at += frame_len) {
      const UpdateSpan frame = all.subspan(at, frame_len);
      table.Ingest(frame);
      if (query) {
        int64_t& sum = answers[static_cast<std::size_t>(w)];
        sum = WrapAdd(sum, table.Query(frame[0].item));
      }
    }
  };
  Timer timer;
  if (writers == 1) {
    write(0);
  } else {
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) threads.emplace_back(write, w);
    for (std::thread& t : threads) t.join();
  }
  ServedResult result;
  result.seconds = timer.ElapsedSeconds();
  result.bytes = tables[0].Bytes();
  for (const int64_t sum : answers) {
    result.answers = WrapAdd(result.answers, sum);
  }
  return result;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void ServedFrames(const std::vector<StreamUpdate>& stream,
                  bench::BenchReporter* reporter) {
  ThreadPool pool(kServedShards);
  struct Shape {
    const char* name;
    int writers;
    bool query;
  };
  const Shape shapes[] = {{"ingest", 1, false},
                          {"ingest+query", 1, true},
                          {"2-writers", 2, false}};
  bench::Row("%-13s %7s %7s %12s %12s %10s %6s", "shape", "width", "frame",
             "flat", "4-shard", "shard/flat", "exact");
  for (const Shape& shape : shapes) {
    for (const int log_width : {14, 16}) {
      const CountMinSketch prototype(uint64_t{1} << log_width, kServedDepth,
                                     kSeed);
      for (const std::size_t frame_len : {4096, 65536, 262144}) {
        // Flat and sharded runs alternate, the side that goes first
        // switching each pair, so host drift lands on both; each side
        // reports its median run.
        const auto serve_flat = [&] {
          return Serve(stream, frame_len, shape.writers, shape.query,
                       [&] { return FlatTable(prototype); });
        };
        const auto serve_sharded = [&] {
          return Serve(stream, frame_len, shape.writers, shape.query,
                       [&] { return ShardedTable(prototype, &pool); });
        };
        std::vector<double> flat_s;
        std::vector<double> sharded_s;
        bool exact = true;
        for (int pair = 0; pair < kServedPairs; ++pair) {
          ServedResult flat;
          ServedResult sharded;
          if (pair % 2 == 0) {
            flat = serve_flat();
            sharded = serve_sharded();
          } else {
            sharded = serve_sharded();
            flat = serve_flat();
          }
          flat_s.push_back(flat.seconds);
          sharded_s.push_back(sharded.seconds);
          exact = exact && flat.bytes == sharded.bytes &&
                  flat.answers == sharded.answers;
        }
        const double flat_seconds = Median(flat_s);
        const double sharded_seconds = Median(sharded_s);
        // ns per update for ingest (wall time over every writer's
        // updates); us per frame when each frame carries a query.
        const double frames =
            static_cast<double>(kServedUpdates / frame_len);
        const double updates =
            static_cast<double>(kServedUpdates) * shape.writers;
        const double scale = shape.query ? 1e6 / frames : 1e9 / updates;
        bench::Row("%-13s %5s%d %7zu %12.1f %12.1f %9.2fx %6s", shape.name,
                   "2^", log_width, frame_len, flat_seconds * scale,
                   sharded_seconds * scale, sharded_seconds / flat_seconds,
                   exact ? "yes" : "NO");
        const std::string key = "E29/" + std::string(shape.name) + "/w" +
                                std::to_string(log_width) + "/f" +
                                std::to_string(frame_len) + "/";
        reporter->Add(key + "flat", updates / flat_seconds,
                      flat_seconds * 1e9 / updates);
        reporter->Add(key + "sharded", updates / sharded_seconds,
                      sharded_seconds * 1e9 / updates);
      }
    }
  }
}

}  // namespace
}  // namespace sketch

int main(int argc, char** argv) {
  using namespace sketch;
  std::string out_path;  // --out <path>: write a bench_compare.py snapshot
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  bench::PrintHeader(
      "E21 - parallel sharded ingestion (bench_parallel_throughput)",
      "Linear sketches shard across threads and tree-merge exactly; "
      "ingestion throughput scales with cores",
      "Zipf(1.1), n = 2^20, N = 2^22 updates, threads in {1,2,4,8}");
  std::printf("hardware_concurrency = %u\n",
              std::thread::hardware_concurrency());

  const auto stream = MakeZipfStream(kUniverse, 1.1, kLength, kSeed);

  bench::BenchReporter reporter;
  Sweep<CountMinSketch>(
      "count-min", stream,
      [] { return CountMinSketch(1 << 12, 5, kSeed); },
      [](const CountMinSketch& s) { return s.Serialize(); }, &reporter);

  Sweep<CountSketch>(
      "count-sketch", stream,
      [] { return CountSketch(1 << 12, 5, kSeed); },
      [](const CountSketch& s) { return s.Serialize(); }, &reporter);

  Sweep<BloomFilter>(
      "bloom", stream, [] { return BloomFilter(1 << 22, 5, kSeed); },
      [](const BloomFilter& s) { return s.Serialize(); }, &reporter);

  bench::PrintHeader(
      "E29 - served frames: flat vs. 4-shard Count-Min "
      "(bench_parallel_throughput)",
      "Hypothesis: at served frame sizes one flat Count-Min table beats "
      "the 4-shard fan-out (a shard/flat ratio below 1 refutes it for "
      "that row)",
      "Zipf(1.1), 2^20 updates per writer, depth 4, 4 shards on a 4-thread "
      "pool, median of 9 alternating runs; flat/4-shard columns in "
      "ns/update (ingest, wall time for 2-writers) or us/frame "
      "(ingest+query)");
  ServedFrames(stream, &reporter);

  if (!out_path.empty() && !reporter.WriteSnapshot(out_path)) return 1;
  return 0;
}
