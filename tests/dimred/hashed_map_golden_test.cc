// Golden digests of the dimensionality reducers built on hashed ±1 rows.
//
// Each case hashes the raw bytes of one output (FNV-1a over the doubles) at
// fixed seeds, at a power-of-two output width and at another width. The
// digests were recorded once; they pin the buckets, the signs and every
// output cell's floating-point accumulation order, so a rewrite of how the
// rows are hashed must leave each output bit-identical, with the SIMD
// kernels on and with SKETCH_FORCE_SCALAR=1.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "cs/signals.h"
#include "dimred/feature_hashing.h"
#include "dimred/jl_transform.h"
#include "dimred/sketched_lowrank.h"
#include "dimred/sketched_regression.h"
#include "linalg/dense_matrix.h"

namespace sketch {
namespace {

class Fnv1a {
 public:
  void Add(const double* data, std::size_t count) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < count * sizeof(double); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const std::vector<double>& v) {
  Fnv1a fnv;
  fnv.Add(v.data(), v.size());
  return fnv.value();
}

uint64_t Digest(const DenseMatrix& m) {
  Fnv1a fnv;
  for (uint64_t r = 0; r < m.rows(); ++r) fnv.Add(m.Row(r), m.cols());
  return fnv.value();
}

// A dense signal with exact zeros between its nonzeros; n = 1000 leaves a
// partial last block.
std::vector<double> DenseSignal(uint64_t n, uint64_t seed) {
  std::vector<double> x = MakePowerLawSignal(n, 0.8, seed);
  for (uint64_t i = 0; i < n; i += 3) x[i] = 0.0;
  return x;
}

TEST(HashedMapGoldenTest, SparseJlApplyIsBitIdentical) {
  struct Case {
    uint64_t output_dim;  // 4 blocks of output_dim / 4 rows
    uint64_t dense;
    uint64_t sparse;
  };
  const Case cases[] = {
      {256, 0x86a4d260fa0a8fdbULL, 0xb7dcfff0e31a14caULL},
      {300, 0x3df2efe9b67eeed6ULL, 0xfed4590a37593414ULL},
  };
  const uint64_t n = 1000;
  const std::vector<double> dense = DenseSignal(n, 31);
  const SparseVector sparse =
      MakeSparseSignal(n, 50, SignalValueDistribution::kGaussian, 32);
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "output_dim " << c.output_dim);
    const SparseJlTransform jl(n, c.output_dim, 4, 3);
    EXPECT_EQ(Digest(jl.Apply(dense)), c.dense);
    EXPECT_EQ(Digest(jl.Apply(sparse)), c.sparse);
  }
}

TEST(HashedMapGoldenTest, CountSketchTransformApplyIsBitIdentical) {
  struct Case {
    uint64_t output_dim;
    uint64_t dense;
    uint64_t sparse;
  };
  const Case cases[] = {
      {128, 0x7aa0c8fad9598a24ULL, 0x480e1cf5168c8962ULL},
      {100, 0x63182833c3f09b5fULL, 0x45190034c5b6ff22ULL},
  };
  const uint64_t n = 1000;
  const std::vector<double> dense = DenseSignal(n, 33);
  const SparseVector sparse =
      MakeSparseSignal(n, 50, SignalValueDistribution::kGaussian, 34);
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "output_dim " << c.output_dim);
    const CountSketchTransform cs(n, c.output_dim, 4);
    EXPECT_EQ(Digest(cs.Apply(dense)), c.dense);
    EXPECT_EQ(Digest(cs.Apply(sparse)), c.sparse);
  }
}

TEST(HashedMapGoldenTest, FeatureHasherIsBitIdentical) {
  struct Case {
    uint64_t output_dim;
    uint64_t digest;
  };
  const Case cases[] = {
      {64, 0x141efb519d698fc4ULL},
      {100, 0xe72b4997775c5021ULL},
  };
  std::vector<std::string> names;
  for (int i = 0; i < 300; ++i) {
    names.push_back("feature-" + std::to_string(i));
  }
  std::vector<std::pair<std::string_view, double>> features;
  for (std::size_t i = 0; i < names.size(); ++i) {
    features.emplace_back(names[i], 0.25 * static_cast<double>(i) - 7.0);
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "output_dim " << c.output_dim);
    const FeatureHasher hasher(c.output_dim, 5);
    EXPECT_EQ(Digest(hasher.HashFeatures(features)), c.digest);
  }
}

TEST(HashedMapGoldenTest, SketchedRegressionSolutionsAreBitIdentical) {
  struct Case {
    uint64_t sketch_rows;  // OSNAP splits them into 4 blocks
    uint64_t osnap;
    uint64_t count_sketch;
  };
  const Case cases[] = {
      {128, 0x75ce1e78a7cb312cULL, 0x068b7f6d9627a092ULL},
      {120, 0x7209805d3bae20c2ULL, 0xfe411d602b61c3daULL},
  };
  DenseMatrix a(2000, 8);
  a.FillGaussian(41);
  Xoshiro256StarStar rng(42);
  std::vector<double> b(a.rows());
  for (double& v : b) v = rng.NextGaussian();
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "sketch_rows " << c.sketch_rows);
    EXPECT_EQ(Digest(SolveSketchedRegression(a, b, c.sketch_rows,
                                             RegressionSketchType::kOsnap,
                                             6, /*osnap_sparsity=*/4)
                         .solution),
              c.osnap);
    EXPECT_EQ(Digest(SolveSketchedRegression(
                         a, b, c.sketch_rows,
                         RegressionSketchType::kCountSketch, 6)
                         .solution),
              c.count_sketch);
  }
}

TEST(HashedMapGoldenTest, CountSketchRangeFinderIsBitIdentical) {
  struct Case {
    uint64_t oversampling;  // l = 5 + oversampling test columns
    uint64_t basis;
  };
  const Case cases[] = {
      {3, 0x556dc2fb1e32c2bfULL},
      {5, 0x0524d9f3cdb86506ULL},
  };
  DenseMatrix a(200, 100);
  a.FillGaussian(51);
  for (uint64_t r = 0; r < a.rows(); r += 4) a.At(r, r % a.cols()) = 0.0;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "oversampling " << c.oversampling);
    EXPECT_EQ(Digest(RandomizedRangeFinder(a, 5, c.oversampling,
                                           LowRankSketchType::kCountSketch, 8)
                         .basis),
              c.basis);
  }
}

}  // namespace
}  // namespace sketch
