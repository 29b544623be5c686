// E22/E25: scalar-vs-kernel single-thread update speedup — how much of the
// per-update cost was call overhead (heap-walked hash coefficients, the
// hardware divide in bucket reduction, per-item traversal) rather than the
// "few multiplies and adds per row" the survey's §1 accounting promises.
// E25 extends the table with the dispatched SIMD tier (the kernel column
// rides the AVX2 lanes when the host has them) and power-of-two width rows
// where the bucket reduction is a mask instead of a FastDiv64 multiply.
// The kernel reduces by width, not by WidthMode: the original division
// rows (widths 2^12 and 2^10, 2^18 Bloom bits) are powers of two and take
// the masked lanes too. The rows named by their width (4093, 262139) are
// the ones that time the FastDiv64 path.
//
// For each sketch, ingests the same Zipf(1.1) stream twice into two
// identically-seeded instances: once through the scalar per-item path
// (Update/Insert in a loop) and once through the kernelized bulk path
// (ApplyBatch -> src/kernels block hashing + SIMD dispatch). Reports
// throughput for both, the speedup, and a bit-exactness verdict
// (Serialize() of the two instances must be byte-identical — the kernel
// layer's contract, which also pins AVX2 == scalar arithmetic).
//
// With --out PATH, also writes a sketch-bench-snapshot-v1 JSON via
// BenchReporter so tools/bench_compare.py can gate the kernel rows
// (bench/baselines/BENCH_kernel_speedup_E25.json).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/bench_reporter.h"
#include "common/timer.h"
#include "kernels/simd_dispatch.h"
#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "stream/generators.h"

namespace sketch {
namespace {

constexpr uint64_t kUniverse = 1 << 20;
constexpr uint64_t kLength = 1 << 21;  // 2M updates
constexpr uint64_t kSeed = 1;
constexpr int kReps = 3;  // best-of to damp scheduler noise

/// Times `ingest(sketch)` over kReps repetitions on a fresh copy of
/// `empty` each rep; returns best millions-of-updates/sec and leaves the
/// last-rep sketch in `*out` for the exactness check.
template <typename S, typename IngestFn>
double BestMups(const S& empty, IngestFn ingest, uint64_t n, S* out) {
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    S sketch(empty);
    Timer timer;
    ingest(&sketch);
    const double mups =
        static_cast<double>(n) / timer.ElapsedSeconds() / 1e6;
    if (mups > best) best = mups;
    *out = sketch;
  }
  return best;
}

/// Prints the table row and records both measurements in the snapshot
/// (keys `<key>/scalar` and `<key>/kernel`; perf-smoke gates the kernel
/// rows, where the SIMD tier shows up).
void Report(bench::BenchReporter* reporter, const char* name,
            const char* key, double scalar_mups, double kernel_mups,
            bool exact) {
  bench::Row("%-22s %14.1f %14.1f %9.2fx %8s", name, scalar_mups,
             kernel_mups, kernel_mups / scalar_mups, exact ? "yes" : "NO");
  const std::string label =
      std::string(exact ? "exact=yes" : "exact=NO") + " tier=" +
      simd::SimdTierName(simd::ActiveSimdTier());
  reporter->Add(std::string(key) + "/scalar", scalar_mups * 1e6,
                1e3 / scalar_mups, label);
  reporter->Add(std::string(key) + "/kernel", kernel_mups * 1e6,
                1e3 / kernel_mups, label);
}

template <typename S>
void RunCase(const char* name, const char* key, const S& empty,
             const std::vector<StreamUpdate>& stream,
             bench::BenchReporter* reporter) {
  S scalar_out(empty);
  S kernel_out(empty);
  const double scalar_mups = BestMups(
      empty,
      [&stream](S* s) {
        for (const StreamUpdate& u : stream) s->Update(u);
      },
      stream.size(), &scalar_out);
  const double kernel_mups = BestMups(
      empty, [&stream](S* s) { s->ApplyBatch(stream); }, stream.size(),
      &kernel_out);
  const bool exact = scalar_out.Serialize() == kernel_out.Serialize();
  Report(reporter, name, key, scalar_mups, kernel_mups, exact);
}

// BloomFilter's scalar path is Insert(key), not Update(update); same shape
// otherwise.
void RunBloomCase(const char* name, const char* key,
                  const BloomFilter& empty,
                  const std::vector<StreamUpdate>& stream,
                  bench::BenchReporter* reporter) {
  BloomFilter scalar_out(empty);
  BloomFilter kernel_out(empty);
  const double scalar_mups = BestMups(
      empty,
      [&stream](BloomFilter* f) {
        for (const StreamUpdate& u : stream) f->Insert(u.item);
      },
      stream.size(), &scalar_out);
  const double kernel_mups = BestMups(
      empty, [&stream](BloomFilter* f) { f->ApplyBatch(stream); },
      stream.size(), &kernel_out);
  const bool exact = scalar_out.Serialize() == kernel_out.Serialize();
  Report(reporter, name, key, scalar_mups, kernel_mups, exact);
}

// DyadicCountMin has no Serialize(); compare point estimates over a probe
// set instead (the levels are CountMin sketches whose exactness the other
// cases already pin byte-for-byte).
void RunDyadicCase(const char* name, const char* key,
                   const DyadicCountMin& empty,
                   const std::vector<StreamUpdate>& stream,
                   bench::BenchReporter* reporter) {
  DyadicCountMin scalar_out(empty);
  DyadicCountMin kernel_out(empty);
  const double scalar_mups = BestMups(
      empty,
      [&stream](DyadicCountMin* s) {
        for (const StreamUpdate& u : stream) s->Update(u);
      },
      stream.size(), &scalar_out);
  const double kernel_mups = BestMups(
      empty, [&stream](DyadicCountMin* s) { s->ApplyBatch(stream); },
      stream.size(), &kernel_out);
  bool exact = true;
  for (uint64_t probe = 0; probe < 4096; ++probe) {
    const uint64_t item = (probe * 0x9e3779b97f4a7c15ULL) % kUniverse;
    if (scalar_out.Estimate(item) != kernel_out.Estimate(item)) {
      exact = false;
      break;
    }
  }
  Report(reporter, name, key, scalar_mups, kernel_mups, exact);
}

void Run(const std::string& out_path) {
  bench::PrintHeader(
      "E22/E25 — Scalar vs. kernelized update path (bench_kernel_speedup)",
      "Batched block hashing + SIMD dispatch + division-free bucket "
      "reduction raise single-thread update throughput with bit-identical "
      "sketches",
      "Zipf(1.1) stream, 2M updates over a 1M universe, one thread");
  std::printf("SIMD tier: %s (avx2 compiled: %s; set SKETCH_FORCE_SCALAR=1 "
              "to pin scalar)\n",
              simd::SimdTierName(simd::ActiveSimdTier()),
              simd::Avx2KernelsCompiled() ? "yes" : "no");
  bench::Row("%-22s %14s %14s %10s %8s", "sketch", "scalar Mup/s",
             "kernel Mup/s", "speedup", "exact");
  bench::BenchReporter reporter;
  const std::vector<StreamUpdate> stream =
      MakeZipfStream(kUniverse, 1.1, kLength, kSeed);
  RunCase("CountMin d=5", "kernel_speedup/CountMin_d5",
          CountMinSketch(1 << 12, 5, kSeed), stream, &reporter);
  RunCase("CountMin d=5 pow2", "kernel_speedup/CountMin_d5_pow2",
          CountMinSketch(1 << 12, 5, kSeed, WidthMode::kPow2), stream,
          &reporter);
  RunCase("CountSketch d=5", "kernel_speedup/CountSketch_d5",
          CountSketch(1 << 12, 5, kSeed), stream, &reporter);
  RunCase("CountSketch d=5 pow2", "kernel_speedup/CountSketch_d5_pow2",
          CountSketch(1 << 12, 5, kSeed, WidthMode::kPow2), stream,
          &reporter);
  RunCase("AMS d=5", "kernel_speedup/AMS_d5", AmsSketch(1 << 10, 5, kSeed),
          stream, &reporter);
  RunBloomCase("Bloom k=7", "kernel_speedup/Bloom_k7",
               BloomFilter(1 << 18, 7, kSeed), stream, &reporter);
  RunBloomCase("Bloom k=7 pow2", "kernel_speedup/Bloom_k7_pow2",
               BloomFilter(1 << 18, 7, kSeed, WidthMode::kPow2), stream,
               &reporter);
  RunCase("CountMin d=5 w=4093", "kernel_speedup/CountMin_d5_w4093",
          CountMinSketch(4093, 5, kSeed), stream, &reporter);
  RunCase("CountSketch d=5 w=4093", "kernel_speedup/CountSketch_d5_w4093",
          CountSketch(4093, 5, kSeed), stream, &reporter);
  RunCase("AMS d=5 w=4093", "kernel_speedup/AMS_d5_w4093",
          AmsSketch(4093, 5, kSeed), stream, &reporter);
  RunBloomCase("Bloom k=7 m=262139", "kernel_speedup/Bloom_k7_m262139",
               BloomFilter(262139, 7, kSeed), stream, &reporter);
  RunDyadicCase("Dyadic L=20 d=3", "kernel_speedup/Dyadic_L20_d3",
                DyadicCountMin(20, 1 << 10, 3, kSeed), stream, &reporter);
  if (!out_path.empty()) reporter.WriteSnapshot(out_path);
}

}  // namespace
}  // namespace sketch

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--out snapshot.json]\n", argv[0]);
      return 1;
    }
  }
  sketch::Run(out_path);
  return 0;
}
