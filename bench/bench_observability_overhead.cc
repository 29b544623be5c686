// E23: observability overhead — the telemetry compiled into every build
// must observe the sketches without touching them, at batch-level cost.
//
//  1. Bit-identity. Telemetry never mutates sketch state, so the serialized
//     bytes of every sketch after ingesting a fixed Zipf stream must equal
//     golden FNV-1a digests captured on the pre-telemetry baseline:
//     counters and spans observe but do not touch the tables. A digest
//     mismatch exits nonzero.
//
//  2. Throughput. Batched ingest (ApplyBatch over 4M updates) with the
//     instrumentation live. This binary reports best-of-N throughput per
//     sketch and writes a `sketch-bench-snapshot-v1` snapshot
//     (--out <path>), followed by the registry the runs filled.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_reporter.h"
#include "common/timer.h"
#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"
#include "telemetry/telemetry.h"

namespace sketch {
namespace {

constexpr uint64_t kUniverse = 1 << 20;
constexpr uint64_t kLength = 1 << 22;  // 4M updates
constexpr uint64_t kStreamSeed = 1;
constexpr uint64_t kSketchSeed = 7;
constexpr int kReps = 5;  // best-of to damp scheduler noise

/// FNV-1a over a byte buffer; matches the digest used to capture the
/// golden values below on the pre-telemetry baseline.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Golden digests of Serialize() after ingesting
/// MakeZipfStream(2^20, 1.1, 2^22, 1), captured before the telemetry
/// subsystem existed. Any drift means instrumentation changed sketch
/// contents — exactly the regression this experiment exists to catch.
struct GoldenDigest {
  const char* name;
  uint64_t digest;
};
constexpr GoldenDigest kGolden[] = {
    {"CountMin", 0xa947f899c71cea9fULL},
    {"CountSketch", 0xa554d615945925ccULL},
    {"Bloom", 0xe494e54077dc1bc5ULL},
    {"Ams", 0x929b7ac7464767cbULL},
};

template <typename S, typename MakeFn>
double BestThroughput(const std::vector<StreamUpdate>& stream, MakeFn make) {
  double best_ips = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    S sketch = make();
    Timer timer;
    sketch.ApplyBatch(stream);
    const double ips = static_cast<double>(stream.size()) /
                       (static_cast<double>(timer.ElapsedNs()) * 1e-9);
    if (ips > best_ips) best_ips = ips;
  }
  return best_ips;
}

template <typename S, typename MakeFn>
bool CheckDigest(const std::vector<StreamUpdate>& stream, MakeFn make,
                 const GoldenDigest& golden) {
  S sketch = make();
  sketch.ApplyBatch(stream);
  const uint64_t digest = Fnv1a(sketch.Serialize());
  const bool ok = digest == golden.digest;
  bench::Row("%-12s golden=0x%016" PRIx64 " got=0x%016" PRIx64 "  %s",
             golden.name, golden.digest, digest, ok ? "OK" : "MISMATCH");
  return ok;
}

int Main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  bench::PrintHeader(
      "E23: observability overhead",
      "Instrumented ingest is bit-identical to the pre-telemetry baseline",
      "Zipf(1.1) stream, 2^22 updates over a 2^20 universe, ApplyBatch");

  const std::vector<StreamUpdate> stream =
      MakeZipfStream(kUniverse, 1.1, kLength, kStreamSeed);

  const auto make_cm = [] {
    return CountMinSketch(4096, 5, kSketchSeed);
  };
  const auto make_cs = [] { return CountSketch(4096, 5, kSketchSeed); };
  const auto make_bloom = [] {
    return BloomFilter(1 << 18, 7, kSketchSeed);
  };
  const auto make_ams = [] { return AmsSketch(1024, 5, kSketchSeed); };

  bench::Row("-- bit-identity vs pre-telemetry baseline --");
  bool all_ok = true;
  all_ok &= CheckDigest<CountMinSketch>(stream, make_cm, kGolden[0]);
  all_ok &= CheckDigest<CountSketch>(stream, make_cs, kGolden[1]);
  all_ok &= CheckDigest<BloomFilter>(stream, make_bloom, kGolden[2]);
  all_ok &= CheckDigest<AmsSketch>(stream, make_ams, kGolden[3]);

  bench::Row("");
  bench::Row("-- batched ingest throughput (best of %d) --", kReps);
  bench::BenchReporter reporter;
  const auto add = [&reporter](const char* name, double ips,
                               const char* label) {
    reporter.Add(name, ips, 1e9 / ips, label);
  };
  add("E23/CountMin/ApplyBatch",
      BestThroughput<CountMinSketch>(stream, make_cm), "w=4096 d=5");
  add("E23/CountSketch/ApplyBatch",
      BestThroughput<CountSketch>(stream, make_cs), "w=4096 d=5");
  add("E23/Bloom/ApplyBatch",
      BestThroughput<BloomFilter>(stream, make_bloom), "m=2^18 k=7");
  add("E23/Ams/ApplyBatch",
      BestThroughput<AmsSketch>(stream, make_ams), "w=1024 d=5");
  reporter.PrintTable();

  bench::Row("");
  bench::Row("-- telemetry registry after the runs above --");
  std::fputs(telemetry::MetricRegistry::Instance().DumpText().c_str(),
             stdout);

  if (!out_path.empty() && !reporter.WriteSnapshot(out_path)) return 1;
  if (!all_ok) {
    bench::Row("E23: DIGEST MISMATCH — telemetry altered sketch contents");
    return 1;
  }
  bench::Row("E23: digests match the pre-telemetry baseline");
  return 0;
}

}  // namespace
}  // namespace sketch

int main(int argc, char** argv) { return sketch::Main(argc, argv); }
