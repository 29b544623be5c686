// Contract tests: the library's no-exceptions policy means precondition
// violations abort with a CHECK message. These death tests pin down the
// contracts a downstream user relies on (and that refactors must not
// silently weaken).

#include <gtest/gtest.h>

#include "common/check.h"
#include "cs/hashed_recovery.h"
#include "fft/fft.h"
#include "linalg/csr_matrix.h"
#include "linalg/dense_matrix.h"
#include "linalg/least_squares.h"
#include "sfft/crt_sfft.h"
#include "sfft/sfft.h"
#include "common/thread_pool.h"
#include "sketch/ams_sketch.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic_count_min.h"
#include "sketch/iblt.h"
#include "sketch/stream_summary.h"

namespace sketch {
namespace {

TEST(ContractDeathTest, CountMinRejectsZeroGeometry) {
  EXPECT_DEATH(CountMinSketch(0, 1, 1), "width");
  EXPECT_DEATH(CountMinSketch(1, 0, 1), "depth");
}

TEST(ContractDeathTest, CountMinRejectsMergeAcrossSeeds) {
  CountMinSketch a(16, 2, 1);
  CountMinSketch b(16, 2, 2);  // different seed: different hash functions
  EXPECT_DEATH(a.Merge(b), "identical geometry and seed");
}

TEST(ContractDeathTest, CountMinRejectsMergeAcrossGeometry) {
  CountMinSketch a(16, 2, 1);
  CountMinSketch wide(32, 2, 1);
  EXPECT_DEATH(a.Merge(wide), "identical geometry and seed");
}

// Every mergeable sketch rejects geometry/seed mismatch with the same
// uniform CHECK message — the contract the sharded ingestion engine
// (`src/parallel`) relies on to catch mis-wired shard replicas loudly
// instead of silently corrupting counters.
TEST(ContractDeathTest, CountSketchRejectsMergeAcrossSeeds) {
  CountSketch a(16, 3, 1);
  CountSketch b(16, 3, 2);
  EXPECT_DEATH(a.Merge(b), "identical geometry and seed");
}

TEST(ContractDeathTest, AmsRejectsMergeAcrossGeometry) {
  AmsSketch a(16, 3, 1);
  AmsSketch narrow(8, 3, 1);
  EXPECT_DEATH(a.Merge(narrow), "identical geometry and seed");
}

TEST(ContractDeathTest, BloomRejectsMergeAcrossSeeds) {
  BloomFilter a(256, 4, 1);
  BloomFilter b(256, 4, 2);
  EXPECT_DEATH(a.Merge(b), "identical geometry and seed");
}

TEST(ContractDeathTest, DyadicRejectsMergeAcrossUniverses) {
  DyadicCountMin a(10, 64, 2, 1);
  DyadicCountMin b(12, 64, 2, 1);
  EXPECT_DEATH(a.Merge(b), "identical geometry and seed");
}

TEST(ContractDeathTest, DyadicRejectsMergeAcrossSeeds) {
  DyadicCountMin a(10, 64, 2, 1);
  DyadicCountMin b(10, 64, 2, 2);  // same shape, different hash functions
  EXPECT_DEATH(a.Merge(b), "identical geometry and seed");
}

TEST(ContractDeathTest, StreamSummaryRejectsMergeAcrossOptions) {
  StreamSummary::Options options;
  options.log_universe = 10;
  StreamSummary a(options);
  options.seed = 2;
  StreamSummary b(options);
  EXPECT_DEATH(a.Merge(b), "identical geometry and seed");
}

TEST(ContractDeathTest, ThreadPoolRejectsZeroThreads) {
  EXPECT_DEATH(ThreadPool pool(0), "num_threads");
}

TEST(ContractDeathTest, ConservativeUpdateRejectsNonPositiveDelta) {
  CountMinSketch cm(16, 2, 1);
  EXPECT_DEATH(cm.UpdateConservative(1, 0), "delta");
  EXPECT_DEATH(cm.UpdateConservative(1, -5), "delta");
}

TEST(ContractDeathTest, CountSketchInnerProductRequiresSameSeed) {
  CountSketch a(16, 3, 1);
  CountSketch b(16, 3, 2);
  EXPECT_DEATH(a.EstimateInnerProduct(b), "identical geometry and seed");
}

TEST(ContractDeathTest, IbltSubtractRequiresSameFamily) {
  Iblt a(60, 3, 1);
  Iblt b(60, 3, 2);
  EXPECT_DEATH(a.Subtract(b), "identical geometry and seed");
}

TEST(ContractDeathTest, FftRejectsEmptyInput) {
  EXPECT_DEATH(Fft(std::vector<Complex>{}), "");
}

TEST(ContractDeathTest, ExactSfftRejectsNonPowerOfTwo) {
  const std::vector<Complex> x(100, Complex(0, 0));
  SfftOptions options;
  EXPECT_DEATH(ExactSparseFft(x, options), "IsPowerOfTwo");
}

TEST(ContractDeathTest, CrtSfftRejectsPrimePowerLengths) {
  const std::vector<Complex> x(64, Complex(0, 0));
  CrtSfftOptions options;
  EXPECT_DEATH(CrtSparseFft(x, options), "co-prime");
}

TEST(ContractDeathTest, LeastSquaresRejectsUnderdeterminedSystems) {
  DenseMatrix a(3, 5);
  EXPECT_DEATH(SolveLeastSquaresQr(a, {1.0, 2.0, 3.0}), "");
}

TEST(ContractDeathTest, LeastSquaresAbortsOnRankDeficiency) {
  DenseMatrix a(4, 2);  // second column all zero: rank 1
  a.At(0, 0) = 1.0;
  a.At(1, 0) = 2.0;
  EXPECT_DEATH(SolveLeastSquaresQr(a, {1.0, 1.0, 1.0, 1.0}),
               "rank deficient");
}

TEST(ContractDeathTest, DenseMatrixMultiplyRejectsWrongDimension) {
  DenseMatrix a(2, 3);
  EXPECT_DEATH(a.Multiply(std::vector<double>{1.0, 2.0}), "");
}

TEST(ContractDeathTest, CsrTripletsOutOfRangeRejected) {
  EXPECT_DEATH(CsrMatrix::FromTriplets(2, 2, {{2, 0, 1.0}}), "");
}

TEST(ContractDeathTest, HashedRecoveryMeasureChecksDimension) {
  const HashedRecovery hr(HashedRecovery::Variant::kCountSketch, 8, 2, 100,
                          1);
  EXPECT_DEATH(hr.Measure(std::vector<double>(50, 0.0)), "");
}

TEST(ContractDeathTest, HashedRecoveryRejectsDepthAboveMax) {
  EXPECT_DEATH(HashedRecovery(HashedRecovery::Variant::kCountSketch, 8,
                              HashedRecovery::kMaxDepth + 1, 100, 1),
               "depth exceeds 64");
}

}  // namespace
}  // namespace sketch
