// E20 (substrate): microbenchmarks of the computational kernels every
// algorithm above sits on — FFT variants, the Walsh-Hadamard butterfly,
// JL applications, peeling-structure inserts, and the Count-Sketch F2
// scan behind the served L2 bound (E32). google-benchmark.

#include <benchmark/benchmark.h>

#include "common/prng.h"
#include "dimred/jl_transform.h"
#include "fft/fft.h"
#include "fft/real_fft.h"
#include "sfft/flat_filter.h"
#include "sfft/sparse_wht.h"
#include "sketch/count_sketch.h"
#include "stream/generators.h"

namespace sketch {
namespace {

std::vector<Complex> RandomComplex(uint64_t n, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.NextGaussian(), rng.NextGaussian());
  return x;
}

std::vector<double> RandomReal(uint64_t n, uint64_t seed) {
  Xoshiro256StarStar rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.NextGaussian();
  return x;
}

void BM_FftPow2(benchmark::State& state) {
  const auto x = RandomComplex(state.range(0), 1);
  for (auto _ : state) benchmark::DoNotOptimize(Fft(x));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftPow2)->RangeMultiplier(4)->Range(1 << 10, 1 << 18)
    ->Complexity(benchmark::oNLogN);

void BM_FftBluestein(benchmark::State& state) {
  // Worst case for Bluestein: length just above a power of two.
  const auto x = RandomComplex(state.range(0) + 1, 2);
  for (auto _ : state) benchmark::DoNotOptimize(Fft(x));
}
BENCHMARK(BM_FftBluestein)->RangeMultiplier(4)->Range(1 << 10, 1 << 16);

void BM_RealFft(benchmark::State& state) {
  const auto x = RandomReal(state.range(0), 3);
  for (auto _ : state) benchmark::DoNotOptimize(RealFft(x));
}
BENCHMARK(BM_RealFft)->RangeMultiplier(4)->Range(1 << 10, 1 << 18);

void BM_DenseWht(benchmark::State& state) {
  const auto x = RandomReal(state.range(0), 4);
  for (auto _ : state) benchmark::DoNotOptimize(DenseWht(x));
}
BENCHMARK(BM_DenseWht)->RangeMultiplier(4)->Range(1 << 10, 1 << 18);

void BM_FlatFilterConstruction(benchmark::State& state) {
  for (auto _ : state) {
    FlatFilter filter(1 << 16, state.range(0), 4, 1e-8);
    benchmark::DoNotOptimize(filter.ResponseAt(0));
  }
  state.SetLabel("B=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_FlatFilterConstruction)->Arg(16)->Arg(64)->Arg(256);

void BM_CountSketchTransformApply(benchmark::State& state) {
  const CountSketchTransform t(1 << 16, 256, 5);
  const auto x = RandomReal(1 << 16, 6);
  for (auto _ : state) benchmark::DoNotOptimize(t.Apply(x));
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_CountSketchTransformApply);

void BM_SparseJlApply(benchmark::State& state) {
  const SparseJlTransform t(1 << 16, 256, static_cast<int>(state.range(0)),
                            7);
  const auto x = RandomReal(1 << 16, 8);
  for (auto _ : state) benchmark::DoNotOptimize(t.Apply(x));
  state.SetLabel("s=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_SparseJlApply)->Arg(2)->Arg(8);

void BM_FjltApply(benchmark::State& state) {
  const FjltTransform t(1 << 16, 256, 9);
  const auto x = RandomReal(1 << 16, 10);
  for (auto _ : state) benchmark::DoNotOptimize(t.Apply(x));
}
BENCHMARK(BM_FjltApply);

// The F2 scan over a 16384 x 4 Count-Sketch (the daemon's query_l2
// geometry). Arg 0: a Zipf-fed table, every row sum below 2^53 (the
// multi-accumulator pass). Arg 1: deltas of +-2^40, every row sum past
// 2^53 (the pass gives up after its first block and rescans in order).
void BM_CountSketchEstimateF2(benchmark::State& state) {
  CountSketch sketch(16384, 4, 11);
  if (state.range(0) == 0) {
    sketch.UpdateAll(MakeZipfStream(1 << 20, 1.1, 1 << 18, 12));
  } else {
    Xoshiro256StarStar rng(13);
    for (int i = 0; i < (1 << 16); ++i) {
      const int64_t sign = (rng.Next() & 1) != 0 ? 1 : -1;
      sketch.Update({rng.Next(), sign * (int64_t{1} << 40)});
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(sketch.EstimateF2());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sketch.SizeInCounters()));
}
BENCHMARK(BM_CountSketchEstimateF2)->Arg(0)->Arg(1);

}  // namespace
}  // namespace sketch

BENCHMARK_MAIN();
