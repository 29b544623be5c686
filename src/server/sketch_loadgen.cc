// Load-generator client for the sketch daemon: N writer threads stream
// Zipf batches into one sharded sketch while M reader threads fire point
// queries, then prints sustained updates/sec and query-latency
// percentiles. It drives a separate daemon over TCP or a Unix socket;
// the E26/E27 benches (bench/bench_server_*.cc) start a SketchServer in
// their own process and drive it over 127.0.0.1 TCP, and perfbench/
// drives a stock sketch_serverd with verified answers.
//
// Two workload shapes:
//  - Legacy split mode (default): --writers ingest-only connections plus
//    --readers query-only connections.
//  - Mixed mode (--connections=N): N identical connections, each choosing
//    per operation between a point query (probability --read-fraction)
//    and an ingest batch. --rate=OPS_PER_SEC switches the mixed mode from
//    closed-loop (issue as fast as responses return) to open-loop:
//    operations are issued on a fixed arrival schedule and latency is
//    measured from the *scheduled* start, so queueing delay shows up in
//    the percentiles instead of being hidden by coordinated omission.
//
// Usage:
//   sketch_loadgen --port=N [--host=127.0.0.1] [--unix=PATH]
//                  [--writers=2] [--readers=2] [--batches=200]
//                  [--batch-size=8192] [--queries=2000]
//                  [--connections=0] [--read-fraction=0.5] [--ops=1000]
//                  [--rate=0] [--query-batch=1] [--shutdown]
//                  [--trace-every=1024] [--out=PATH]
//
// --trace-every=N stamps every Nth request per connection with a wire
// trace id (0 disables), so a daemon run with telemetry compiled in can
// export sampled request timelines from /tracez. --out writes a
// sketch-bench-snapshot-v1 JSON of the run's throughput and latency
// percentiles, comparable with committed baselines via
// tools/bench_compare.py. Integer flags must be whole decimal numbers in
// range (--writers, --readers and --connections at most 1024, one client
// thread each); anything else prints the usage line and exits 2.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_reporter.h"
#include "common/prng.h"
#include "common/timer.h"
#include "server/client.h"
#include "server/flags.h"
#include "stream/generators.h"

namespace {

using sketch::MakeZipfStream;
using sketch::StreamUpdate;
using sketch::Xoshiro256StarStar;
using sketch::UpdateSpan;
using sketch::server::ConnectTcp;
using sketch::server::ConnectUnix;
using sketch::server::ParseFlag;
using sketch::server::ParseNumber;
using sketch::server::PointValueResponse;
using sketch::server::SketchClient;
using sketch::server::SketchType;

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string unix_path;
  std::size_t writers = 2;
  std::size_t readers = 2;
  std::size_t batches = 200;       // per writer
  std::size_t batch_size = 8192;
  std::size_t queries = 2000;      // per reader
  // Mixed mode (active when connections > 0).
  std::size_t connections = 0;     // mixed-workload connections
  double read_fraction = 0.5;      // probability an op is a query
  std::size_t ops = 1000;          // operations per connection
  double rate = 0.0;               // open-loop total ops/sec; 0 = closed
  std::size_t query_batch = 1;     // keys per point query (batched >1)
  uint64_t trace_every = 1024;     // wire-trace sampling; 0 = off
  std::string out_path;            // snapshot JSON; empty = none
  bool shutdown = false;
};

/// Most connections a thread-count flag may ask for: each is one client
/// thread.
constexpr uint64_t kMaxThreads = 1024;

std::unique_ptr<SketchClient> Connect(const Config& config,
                                      uint64_t trace_seed = 0) {
  auto stream = config.unix_path.empty()
                    ? ConnectTcp(config.host, config.port)
                    : ConnectUnix(config.unix_path);
  if (stream == nullptr) return nullptr;
  auto client = std::make_unique<SketchClient>(std::move(stream));
  if (config.trace_every != 0 && trace_seed != 0) {
    client->SetTraceSampling(config.trace_every, trace_seed);
  }
  return client;
}

double Percentile(std::vector<double>* sorted_ns, double q) {
  if (sorted_ns->empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ns->size() - 1));
  return (*sorted_ns)[index];
}

void PrintLatencies(std::vector<double>* all_ns) {
  std::sort(all_ns->begin(), all_ns->end());
  std::printf("  query p50         %.1f us\n",
              Percentile(all_ns, 0.50) / 1e3);
  std::printf("  query p99         %.1f us\n",
              Percentile(all_ns, 0.99) / 1e3);
}

/// Records throughput + latency percentiles in the snapshot schema.
/// `sorted_ns` must already be sorted (PrintLatencies does that).
void ReportRun(const Config& config, double updates_per_sec,
               double queries_per_sec, std::vector<double>* sorted_ns) {
  if (config.out_path.empty()) return;
  sketch::bench::BenchReporter reporter;
  reporter.Add("loadgen.ingest", updates_per_sec, 0.0, "updates/s");
  reporter.Add("loadgen.query_p50", queries_per_sec,
               Percentile(sorted_ns, 0.50), "point-query p50");
  reporter.Add("loadgen.query_p99", queries_per_sec,
               Percentile(sorted_ns, 0.99), "point-query p99");
  reporter.WriteSnapshot(config.out_path);
}

/// Mixed open/closed-loop mode: every connection interleaves queries and
/// ingest batches per --read-fraction.
int RunMixed(const Config& config, const std::string& name,
             SketchClient* admin) {
  std::atomic<uint64_t> total_updates{0};
  std::atomic<uint64_t> total_queries{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::vector<double>> latencies(config.connections);

  // Per-connection open-loop interval: the requested aggregate rate is
  // split evenly across connections.
  const double per_conn_interval_ns =
      config.rate > 0.0
          ? 1e9 * static_cast<double>(config.connections) / config.rate
          : 0.0;

  sketch::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<SketchClient> client = Connect(config, 0xace1 + c);
      if (client == nullptr) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Xoshiro256StarStar rng(0x5eed + c);
      const double read_fraction_c = config.read_fraction;
      // A modest pool of pre-generated batches, cycled by write_index:
      // bounds memory at 64 batches per connection regardless of --ops.
      constexpr std::size_t kBatchPool = 64;
      const std::vector<StreamUpdate> stream = MakeZipfStream(
          /*universe=*/1 << 20, /*alpha=*/1.1,
          /*length=*/config.batch_size * kBatchPool, /*seed=*/500 + c);
      std::vector<uint64_t> batch_keys(config.query_batch);
      latencies[c].reserve(config.ops);
      const uint64_t start_ns = sketch::MonotonicNowNs();
      std::size_t write_index = 0;
      for (std::size_t op = 0; op < config.ops; ++op) {
        uint64_t issue_ns = sketch::MonotonicNowNs();
        if (per_conn_interval_ns > 0.0) {
          // Open loop: wait for this op's scheduled arrival; latency is
          // measured from the schedule, not from the (possibly late)
          // issue instant.
          const uint64_t scheduled =
              start_ns + static_cast<uint64_t>(
                             per_conn_interval_ns * static_cast<double>(op));
          while (sketch::MonotonicNowNs() < scheduled) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          }
          issue_ns = scheduled;
        }
        if (rng.NextDouble() < read_fraction_c) {
          bool ok;
          if (config.query_batch > 1) {
            for (uint64_t& k : batch_keys) k = rng.NextBounded(uint64_t{1} << 20);
            std::vector<PointValueResponse> values;
            ok = client->PointQueryBatch(name, batch_keys, &values);
          } else {
            PointValueResponse value;
            ok = client->PointQuery(name, rng.NextBounded(uint64_t{1} << 20), &value);
          }
          if (!ok) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          latencies[c].push_back(
              static_cast<double>(sketch::MonotonicNowNs() - issue_ns));
          total_queries.fetch_add(1, std::memory_order_relaxed);
        } else {
          const UpdateSpan batch(
              stream.data() + (write_index % kBatchPool) * config.batch_size,
              config.batch_size);
          ++write_index;
          uint64_t accepted = 0;
          if (!client->Ingest(name, batch, &accepted)) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          total_updates.fetch_add(accepted, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  const double updates = static_cast<double>(
      total_updates.load(std::memory_order_relaxed));
  const double queries = static_cast<double>(
      total_queries.load(std::memory_order_relaxed));
  std::printf("sketch_loadgen: %zu mixed connections x %zu ops, "
              "read fraction %.2f, %s\n",
              config.connections, config.ops, config.read_fraction,
              config.rate > 0.0 ? "open loop" : "closed loop");
  if (config.rate > 0.0) {
    std::printf("  target rate       %.0f ops/s\n", config.rate);
  }
  std::printf("  wall time         %.3f s\n", seconds);
  std::printf("  sustained ingest  %.2f Mupdates/s\n",
              updates / seconds / 1e6);
  std::printf("  sustained queries %.2f Kqueries/s\n",
              queries / seconds / 1e3);
  PrintLatencies(&all);
  ReportRun(config, updates / seconds, queries / seconds, &all);
  const uint64_t failed = failures.load(std::memory_order_relaxed);
  if (failed > 0) {
    std::fprintf(stderr, "sketch_loadgen: %llu connection(s) failed\n",
                 static_cast<unsigned long long>(failed));
    return 1;
  }
  if (config.shutdown) admin->Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    bool ok = true;
    if (ParseFlag(arg, "host", &value)) {
      config.host = value;
    } else if (ParseFlag(arg, "port", &value)) {
      ok = ParseNumber(value, 0, UINT16_MAX, &config.port);
    } else if (ParseFlag(arg, "unix", &value)) {
      config.unix_path = value;
    } else if (ParseFlag(arg, "writers", &value)) {
      ok = ParseNumber(value, 0, kMaxThreads, &config.writers);
    } else if (ParseFlag(arg, "readers", &value)) {
      ok = ParseNumber(value, 0, kMaxThreads, &config.readers);
    } else if (ParseFlag(arg, "batches", &value)) {
      ok = ParseNumber(value, 0, SIZE_MAX, &config.batches);
    } else if (ParseFlag(arg, "batch-size", &value)) {
      ok = ParseNumber(value, 0, SIZE_MAX, &config.batch_size);
    } else if (ParseFlag(arg, "queries", &value)) {
      ok = ParseNumber(value, 0, SIZE_MAX, &config.queries);
    } else if (ParseFlag(arg, "connections", &value)) {
      ok = ParseNumber(value, 0, kMaxThreads, &config.connections);
    } else if (ParseFlag(arg, "read-fraction", &value)) {
      config.read_fraction = std::atof(value.c_str());
    } else if (ParseFlag(arg, "ops", &value)) {
      ok = ParseNumber(value, 0, SIZE_MAX, &config.ops);
    } else if (ParseFlag(arg, "rate", &value)) {
      config.rate = std::atof(value.c_str());
    } else if (ParseFlag(arg, "query-batch", &value)) {
      ok = ParseNumber(value, 0, SIZE_MAX, &config.query_batch);
    } else if (ParseFlag(arg, "trace-every", &value)) {
      ok = ParseNumber(value, 0, UINT64_MAX, &config.trace_every);
    } else if (ParseFlag(arg, "out", &value)) {
      config.out_path = value;
    } else if (arg == "--shutdown") {
      config.shutdown = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: %s --port=N [--host=H] [--unix=PATH] "
                   "[--writers=N] [--readers=N] [--batches=N] "
                   "[--batch-size=N] [--queries=N] [--connections=N] "
                   "[--read-fraction=F] [--ops=N] [--rate=F] "
                   "[--query-batch=N] [--trace-every=N] [--out=PATH] "
                   "[--shutdown]\n"
                   "  port 0..65535, --writers/--readers/--connections "
                   "0..%llu\n",
                   argv[0], static_cast<unsigned long long>(kMaxThreads));
      return 2;
    }
  }
  if (config.port == 0 && config.unix_path.empty()) {
    std::fprintf(stderr, "sketch_loadgen: need --port or --unix\n");
    return 2;
  }
  if (config.read_fraction < 0.0 || config.read_fraction > 1.0) {
    std::fprintf(stderr,
                 "sketch_loadgen: --read-fraction must be in [0, 1]\n");
    return 2;
  }
  if (config.query_batch < 1) config.query_batch = 1;

  std::unique_ptr<SketchClient> admin = Connect(config);
  if (admin == nullptr || !admin->Ping()) {
    std::fprintf(stderr, "sketch_loadgen: cannot reach daemon\n");
    return 1;
  }
  const std::string name = "loadgen";
  admin->DropSketch(name);  // ignore "no such sketch" from a prior run
  if (!admin->CreateSketch(name, SketchType::kShardedCountMin,
                           {16384, 4, 42, 4, 0})) {
    std::fprintf(stderr, "sketch_loadgen: create failed: %s\n",
                 admin->last_error().message.c_str());
    return 1;
  }

  if (config.connections > 0) {
    return RunMixed(config, name, admin.get());
  }

  std::atomic<uint64_t> total_updates{0};
  std::vector<std::vector<double>> latencies(config.readers);

  sketch::Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < config.writers; ++w) {
    threads.emplace_back([&, w] {
      std::unique_ptr<SketchClient> client = Connect(config, 0xbee1 + w);
      if (client == nullptr) return;
      const std::vector<StreamUpdate> stream = MakeZipfStream(
          /*universe=*/1 << 20, /*alpha=*/1.1,
          /*length=*/config.batch_size * config.batches, /*seed=*/100 + w);
      for (std::size_t b = 0; b < config.batches; ++b) {
        const UpdateSpan batch(stream.data() + b * config.batch_size,
                               config.batch_size);
        uint64_t accepted = 0;
        if (!client->Ingest(name, batch, &accepted)) return;
        // relaxed: monotone sum, read only after the joins below.
        total_updates.fetch_add(accepted, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t r = 0; r < config.readers; ++r) {
    threads.emplace_back([&, r] {
      std::unique_ptr<SketchClient> client = Connect(config, 0xcee1 + r);
      if (client == nullptr) return;
      latencies[r].reserve(config.queries);
      for (std::size_t q = 0; q < config.queries; ++q) {
        PointValueResponse value;
        const uint64_t t0 = sketch::MonotonicNowNs();
        if (!client->PointQuery(name, q * 2654435761u % (1 << 20), &value)) {
          return;
        }
        latencies[r].push_back(
            static_cast<double>(sketch::MonotonicNowNs() - t0));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  // relaxed: the joins above already order every writer's adds before
  // this read; the load needs atomicity only.
  const double updates = static_cast<double>(
      total_updates.load(std::memory_order_relaxed));
  std::printf("sketch_loadgen: %zu writers x %zu batches x %zu updates, "
              "%zu readers x %zu queries\n",
              config.writers, config.batches, config.batch_size,
              config.readers, config.queries);
  std::printf("  wall time         %.3f s\n", seconds);
  std::printf("  sustained ingest  %.2f Mupdates/s\n",
              updates / seconds / 1e6);
  PrintLatencies(&all);
  ReportRun(config, updates / seconds,
            static_cast<double>(all.size()) / seconds, &all);

  if (config.shutdown) admin->Shutdown();
  return 0;
}
