// E27: observability-plane overhead — tracing, slow-query log, sketch
// health, and HTTP exposition must be near-free on the serving path and
// must never perturb sketch state.
//
// Two claims, both checked here:
//
//  1. Bit-identity. The E26 mixed workload is run twice against a fresh
//     daemon: once with the full observability plane ON (HTTP exposition,
//     slow-query log, 1/1024 wire trace sampling) and once with
//     everything OFF. Count-Min ingest is
//     commutative, so both runs must leave byte-identical sketch state:
//     the Snapshot() blobs are digested with FNV-1a and compared. A
//     mismatch exits nonzero unconditionally — observation must not
//     mutate.
//
//  2. Throughput. ON should be within a few percent of OFF; measured
//     best-of-kReps runs land within noise of zero (ON sometimes wins).
//     The --gate threshold is deliberately loose (15%) for the same
//     reason as the E26 gate: a full mixed TCP workload on a shared
//     runner swings ±10-20% run to run, and the gate exists to catch a
//     collapsed plane (tracing accidentally unconditional, a runaway
//     health walk), not a few percent. The gate is opt-in via --gate
//     so local runs don't fail on an unlucky box; CI passes --gate.
//
// During the ON run the /metrics endpoint is scraped once mid-flight to
// confirm the exposition path serves under load; that scrape evaluates
// the registry's health on the I/O thread serving the workload.
//
// Usage: bench_server_e27 [--gate] [--out PATH]

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
constexpr std::size_t kWindow = 32;       // pipelined ops per round trip
constexpr std::size_t kConnections = 16;
constexpr std::size_t kTotalOps = 24576;  // split across connections
constexpr uint64_t kTraceEvery = 1024;    // ON-run wire-trace sampling
constexpr int kReps = 5;                  // best-of to damp scheduler noise

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct RunResult {
  double ops_per_second = 0.0;
  double p99_us = 0.0;
  uint64_t state_digest = 0;
  bool scrape_ok = false;
  bool ok = false;
};

/// One E26-shaped mixed run. `observability` turns on every plane at
/// once: HTTP exposition (whose /metrics scrape evaluates sketch health),
/// slow-query log, and client-side wire trace stamping at 1/kTraceEvery.
RunResult RunMixed(bool observability) {
  SketchServer::Options options;
  options.io_threads = 1;
  if (observability) options.http_port = 0;  // any free port
  options.slow_query_log_size = observability ? 8 : 0;
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

  const std::size_t windows_per_conn = kTotalOps / (kConnections * kWindow);
  std::atomic<uint64_t> total_ops{0};
  std::atomic<bool> failed{false};
  std::vector<std::vector<double>> latencies(kConnections);

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

  std::latch ready(static_cast<std::ptrdiff_t>(kConnections));
  std::latch go(1);

  Timer timer;
  std::vector<std::thread> clients;
  clients.reserve(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      auto stream = ConnectTcp("127.0.0.1", port);
      if (stream == nullptr) {
        failed.store(true, std::memory_order_relaxed);
        ready.count_down();
        return;
      }
      Xoshiro256StarStar rng(0xe27 + c);
      SplitMix64 trace_rng(0xace1 + c);
      FrameDecoder decoder;
      std::vector<uint8_t> chunk(64 * 1024);
      std::vector<uint64_t> keys(kQueryBatch);
      latencies[c].reserve(windows_per_conn);
      std::size_t writes = c;  // stagger the shared ingest-frame pool
      uint64_t op_count = 0;
      ready.count_down();
      go.wait();
      for (std::size_t w = 0; w < windows_per_conn; ++w) {
        std::vector<uint8_t> wire;
        for (std::size_t op = 0; op < kWindow; ++op) {
          const bool traced =
              observability && op_count++ % kTraceEvery == 0;
          if (rng.NextDouble() < 0.5) {
            PointQueryBatchRequest request;
            request.name = "bench";
            for (uint64_t& k : keys) k = rng.NextBounded(kUniverse);
            request.items = keys;
            std::vector<uint8_t> frame = EncodePointQueryBatch(request);
            if (traced) StampTraceId(&frame, trace_rng.Next() | 1);
            wire.insert(wire.end(), frame.begin(), frame.end());
          } else {
            const std::vector<uint8_t>& pooled =
                ingest_frames[writes % kBatchPool];
            ++writes;
            if (traced) {
              std::vector<uint8_t> frame = pooled;  // pool stays unstamped
              StampTraceId(&frame, trace_rng.Next() | 1);
              wire.insert(wire.end(), frame.begin(), frame.end());
            } else {
              wire.insert(wire.end(), pooled.begin(), pooled.end());
            }
          }
        }
        const uint64_t start = MonotonicNowNs();
        if (!WriteAll(stream.get(), wire)) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
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
        total_ops.fetch_add(kWindow, std::memory_order_relaxed);
      }
    });
  }
  ready.wait();
  timer.Reset();
  go.count_down();

  if (observability) {
    // Scrape /metrics mid-flight: the exposition path must serve while
    // the daemon is under full load.
    auto http = ConnectTcp("127.0.0.1", server.http_port());
    if (http != nullptr) {
      const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
      if (WriteAll(http.get(), reinterpret_cast<const uint8_t*>(request),
                   sizeof(request) - 1)) {
        std::string response;
        uint8_t buf[4096];
        std::ptrdiff_t n;
        while ((n = http->Read(buf, sizeof(buf))) > 0) {
          response.append(reinterpret_cast<const char*>(buf),
                          static_cast<std::size_t>(n));
        }
        result.scrape_ok = response.rfind("HTTP/1.0 200", 0) == 0;
      }
    }
  }

  for (std::thread& t : clients) t.join();
  const double elapsed = timer.ElapsedSeconds();
  if (failed.load(std::memory_order_relaxed)) {
    server.Stop();
    return result;
  }

  {
    auto admin_stream = ConnectTcp("127.0.0.1", port);
    if (admin_stream == nullptr) {
      server.Stop();
      return result;
    }
    SketchClient admin(std::move(admin_stream));
    std::vector<uint8_t> blob;
    if (!admin.Snapshot("bench", &blob)) {
      server.Stop();
      return result;
    }
    result.state_digest = Fnv1a(blob);
  }
  server.Stop();

  std::vector<double> all;
  for (const auto& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  std::sort(all.begin(), all.end());
  result.ops_per_second =
      static_cast<double>(total_ops.load(std::memory_order_relaxed)) /
      elapsed;
  if (!all.empty()) result.p99_us = all[all.size() * 99 / 100];
  result.ok = true;
  return result;
}

int Main(int argc, char** argv) {
  std::string out_path;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    }
  }

  bench::PrintHeader(
      "E27: observability-plane overhead (tracing + slow log + sketch "
      "health + /metrics)",
      "the full observability plane costs a few percent of mixed-workload "
      "throughput at most and leaves sketch state byte-identical",
      "16 connections x 32-op pipelined windows (E26 shape), one shared "
      "CountMin, 127.0.0.1 TCP, 1/1024 wire-trace sampling");

  RunResult best_off, best_on;
  for (int rep = 0; rep < kReps; ++rep) {
    const RunResult off = RunMixed(false);
    const RunResult on = RunMixed(true);
    if (!off.ok || !on.ok) {
      bench::Row("E27: workload failed (rep %d)", rep);
      return 1;
    }
    if (off.state_digest != on.state_digest) {
      bench::Row("E27: STATE DIVERGENCE rep %d: off=%016llx on=%016llx", rep,
                 static_cast<unsigned long long>(off.state_digest),
                 static_cast<unsigned long long>(on.state_digest));
      return 1;
    }
    if (!on.scrape_ok) {
      bench::Row("E27: /metrics scrape under load failed (rep %d)", rep);
      return 1;
    }
    bench::Row("rep %d   off %8.1f Kops/s (p99 %7.1f us)   on %8.1f Kops/s "
               "(p99 %7.1f us)",
               rep, off.ops_per_second / 1e3, off.p99_us,
               on.ops_per_second / 1e3, on.p99_us);
    if (off.ops_per_second > best_off.ops_per_second) best_off = off;
    if (on.ops_per_second > best_on.ops_per_second) best_on = on;
  }

  const double overhead =
      1.0 - best_on.ops_per_second / best_off.ops_per_second;
  bench::Row("");
  bench::Row("best-of-%d: off %.1f Kops/s, on %.1f Kops/s -> overhead %.2f%%",
             kReps, best_off.ops_per_second / 1e3,
             best_on.ops_per_second / 1e3, overhead * 100.0);
  bench::Row("state digest %016llx (identical across all runs)",
             static_cast<unsigned long long>(best_off.state_digest));

  bench::BenchReporter reporter;
  reporter.Add("E27/observability_off", best_off.ops_per_second,
               1e9 / best_off.ops_per_second, "plane off");
  reporter.Add("E27/observability_on", best_on.ops_per_second,
               1e9 / best_on.ops_per_second, "plane on");
  bench::Row("");
  reporter.PrintTable();
  if (!out_path.empty() && !reporter.WriteSnapshot(out_path)) return 1;

  // Loose on purpose: mixed-TCP throughput on a shared box swings
  // ±10-20% run to run, so a tight gate would flake. 15% still catches
  // a collapsed plane (unconditional tracing, a runaway health walk).
  if (gate && overhead > 0.15) {
    bench::Row("E27: GATE FAILED: overhead %.2f%% > 15%%", overhead * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sketch::server

int main(int argc, char** argv) { return sketch::server::Main(argc, argv); }
