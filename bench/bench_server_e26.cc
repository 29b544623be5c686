// E26: server front-door scaling — epoll event loop + striped registry +
// batched read-path dispatch, over real TCP.
//
// Claim: the E26 front door (a small epoll I/O-thread pool, per-entry
// reader-writer locks striped by name hash, and batched ingest/point-query
// dispatch) holds its mixed-workload throughput from 8 to 256 connections
// with a bounded p99 latency. Its rows are gated against the committed
// baseline.
//
// Workload: C client connections over 127.0.0.1 TCP. Each connection is
// closed-loop per *window*: it pipelines a window of 32 operations in a
// single write — with probability `read` a 16-key batched point query,
// otherwise a 64-update Zipf(1.1) ingest frame — then reads all 32
// responses back. Pipelining is the shape the E26 front door is built
// for: the epoll path drains the whole window in one read, applies the
// ingest run under one lock, and coalesces all responses into one send.
// Frames are small on purpose: this experiment weighs the per-frame
// front-door cost (framing, locking, syscalls), not raw sketch update
// throughput, which E1/E3 measure in isolation. We sweep C in {8, 64, 256} and the read
// fraction in {0.1, 0.5, 0.9}; latency is measured per window round
// trip.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_reporter.h"
#include "common/prng.h"
#include "common/timer.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stream/generators.h"

namespace sketch::server {
namespace {

constexpr uint64_t kUniverse = 1 << 20;
constexpr uint64_t kIngestBatch = 64;
constexpr std::size_t kQueryBatch = 16;
constexpr std::size_t kWindow = 32;      // pipelined ops per round trip
constexpr std::size_t kTotalOps = 49152;  // split across connections

struct RunResult {
  double ops_per_second = 0.0;
  double updates_per_second = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t windows = 0;
  bool ok = false;
};

RunResult RunMixed(std::size_t connections, double read_fraction) {
  SketchServer::Options options;
  options.io_threads = 1;
  SketchServer server(options);
  RunResult result;
  if (!server.Start()) return result;
  const uint16_t port = server.port();

  {
    auto admin_stream = ConnectTcp("127.0.0.1", port);
    if (admin_stream == nullptr) return result;
    SketchClient admin(std::move(admin_stream));
    if (!admin.CreateSketch("bench", SketchType::kCountMin,
                            {16384, 4, 42, 0, 0})) {
      return result;
    }
  }

  const std::size_t windows_per_conn =
      kTotalOps / (connections * kWindow) > 0
          ? kTotalOps / (connections * kWindow)
          : 1;
  std::atomic<uint64_t> total_updates{0};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<bool> failed{false};
  std::vector<std::vector<double>> latencies(connections);

  // Ingest frames are generated and encoded ONCE, before any client
  // thread exists: ZipfGenerator setup is O(universe) and must not leak
  // into the timed serving phase (it dominated an earlier draft of this
  // benchmark at high connection counts). Connections start at staggered
  // offsets so concurrent windows are not byte-identical.
  constexpr std::size_t kBatchPool = 16;
  std::vector<std::vector<uint8_t>> ingest_frames(kBatchPool);
  {
    const std::vector<StreamUpdate> zipf =
        MakeZipfStream(kUniverse, 1.1, kIngestBatch * kBatchPool, 900);
    for (std::size_t b = 0; b < kBatchPool; ++b) {
      IngestRequest request;
      request.name = "bench";
      request.updates.assign(zipf.begin() + b * kIngestBatch,
                             zipf.begin() + (b + 1) * kIngestBatch);
      ingest_frames[b] = EncodeIngest(request);
    }
  }

  // Every client connects and finishes its setup before the clock
  // starts; the timer covers only the serving phase.
  std::latch ready(static_cast<std::ptrdiff_t>(connections));
  std::latch go(1);

  Timer timer;
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      auto stream = ConnectTcp("127.0.0.1", port);
      if (stream == nullptr) {
        failed.store(true, std::memory_order_relaxed);
        ready.count_down();
        return;
      }
      Xoshiro256StarStar rng(0xe26 + c);
      const double read_fraction_c = read_fraction;

      FrameDecoder decoder;
      std::vector<uint8_t> chunk(64 * 1024);
      std::vector<uint64_t> keys(kQueryBatch);
      latencies[c].reserve(windows_per_conn);
      std::size_t writes = c;  // stagger the shared ingest-frame pool
      ready.count_down();
      go.wait();
      for (std::size_t w = 0; w < windows_per_conn; ++w) {
        // Build one pipelined window: kWindow frames, one write.
        std::vector<uint8_t> wire;
        uint64_t window_updates = 0;
        for (std::size_t op = 0; op < kWindow; ++op) {
          if (rng.NextDouble() < read_fraction_c) {
            PointQueryBatchRequest request;
            request.name = "bench";
            for (uint64_t& k : keys) k = rng.NextBounded(kUniverse);
            request.items = keys;
            const std::vector<uint8_t> frame = EncodePointQueryBatch(request);
            wire.insert(wire.end(), frame.begin(), frame.end());
          } else {
            const std::vector<uint8_t>& frame =
                ingest_frames[writes % kBatchPool];
            ++writes;
            window_updates += kIngestBatch;
            wire.insert(wire.end(), frame.begin(), frame.end());
          }
        }
        const uint64_t start = MonotonicNowNs();
        if (!WriteAll(stream.get(), wire)) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        // Closed loop per window: read until every response is back.
        std::size_t responses = 0;
        while (responses < kWindow) {
          Frame frame;
          const DecodeStatus status = decoder.Next(&frame);
          if (status == DecodeStatus::kFrame) {
            if (frame.opcode == Opcode::kError) {
              failed.store(true, std::memory_order_relaxed);
              return;
            }
            ++responses;
            continue;
          }
          if (status == DecodeStatus::kBadFrame) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          const std::ptrdiff_t n = stream->Read(chunk.data(), chunk.size());
          if (n <= 0) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
          decoder.Feed(chunk.data(), static_cast<std::size_t>(n));
        }
        latencies[c].push_back(
            static_cast<double>(MonotonicNowNs() - start) * 1e-3);
        total_updates.fetch_add(window_updates, std::memory_order_relaxed);
        total_ops.fetch_add(kWindow, std::memory_order_relaxed);
      }
    });
  }
  ready.wait();
  timer.Reset();
  go.count_down();
  for (std::thread& t : clients) t.join();
  const double elapsed = timer.ElapsedSeconds();
  server.Stop();
  if (failed.load(std::memory_order_relaxed)) return result;

  std::vector<double> all;
  for (const auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all.begin(), all.end());
  result.ops_per_second =
      static_cast<double>(total_ops.load(std::memory_order_relaxed)) /
      elapsed;
  result.updates_per_second =
      static_cast<double>(total_updates.load(std::memory_order_relaxed)) /
      elapsed;
  result.windows = all.size();
  if (!all.empty()) {
    result.p50_us = all[all.size() / 2];
    result.p99_us = all[all.size() * 99 / 100];
  }
  result.ok = true;
  return result;
}

int Main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::PrintHeader(
      "E26: server front-door scaling (epoll + striped locks, real TCP)",
      "the epoll event loop with striped shared locks and batched dispatch "
      "holds its pipelined mixed-load throughput from 8 to 256 connections "
      "(rows gated against the committed baseline)",
      "C connections x 16-op pipelined windows (16-key batched queries / "
      "256-update Zipf ingests), one shared CountMin, 127.0.0.1 TCP");

  bench::BenchReporter reporter;
  struct Config {
    const char* key;
    std::size_t connections;
    double read_fraction;
  };
  const Config configs[] = {
      {"E26/epoll/c8/mix50", 8, 0.5},
      {"E26/epoll/c64/mix50", 64, 0.5},
      {"E26/epoll/c256/mix50", 256, 0.5},
      {"E26/epoll/c64/read90", 64, 0.9},
      {"E26/epoll/c64/write90", 64, 0.1},
  };

  for (const Config& config : configs) {
    const RunResult result =
        RunMixed(config.connections, config.read_fraction);
    if (!result.ok) {
      bench::Row("E26: workload failed for %s", config.key);
      return 1;
    }
    bench::Row("%-24s %9.1f Kops/s  %7.2f Mupd/s   win p50 %7.1f us   "
               "p99 %7.1f us",
               config.key, result.ops_per_second / 1e3,
               result.updates_per_second / 1e6, result.p50_us,
               result.p99_us);
    char label[64];
    std::snprintf(label, sizeof(label), "%zu conns read=%.1f epoll",
                  config.connections, config.read_fraction);
    reporter.Add(config.key, result.ops_per_second,
                 1e9 / result.ops_per_second, label);
    if (std::strcmp(config.key, "E26/epoll/c64/mix50") == 0) {
      reporter.Add("E26/epoll/c64/mix50/window_p99",
                   result.p99_us > 0.0 ? 1e6 / result.p99_us : 0.0,
                   result.p99_us * 1e3, "16-op pipelined window p99");
    }
  }

  bench::Row("");
  reporter.PrintTable();
  if (!out_path.empty() && !reporter.WriteSnapshot(out_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace sketch::server

int main(int argc, char** argv) { return sketch::server::Main(argc, argv); }
