// Golden digests of the compressed-sensing maps built on hashed ±1 rows.
//
// Each case hashes the raw bytes of one output (FNV-1a over the doubles, and
// over the indices of sparse outputs) at fixed seeds, at a power-of-two
// width and at another width. The digests were recorded once; they pin the
// buckets, the signs and every measurement cell's floating-point
// accumulation order, so a rewrite of how the rows are hashed must leave
// each output bit-identical, with the SIMD kernels on and with
// SKETCH_FORCE_SCALAR=1.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cs/bit_test_recovery.h"
#include "cs/ensembles.h"
#include "cs/hashed_recovery.h"
#include "cs/signals.h"

namespace sketch {
namespace {

class Fnv1a {
 public:
  void Add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void Add(double v) { Add(&v, sizeof v); }
  void Add(uint64_t v) { Add(&v, sizeof v); }
  void Add(const std::vector<double>& v) { Add(v.data(), v.size() * 8); }
  void Add(const SparseVector& v) {
    Add(v.dimension());
    for (const SparseEntry& e : v.entries()) {
      Add(e.index);
      Add(e.value);
    }
  }
  void Add(const CsrMatrix& m) {
    Add(m.rows());
    Add(m.cols());
    for (uint64_t r = 0; r < m.rows(); ++r) {
      const CsrMatrix::RowView row = m.Row(r);
      Add(row.size);
      Add(row.cols, row.size * sizeof(uint64_t));
      Add(row.values, row.size * sizeof(double));
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

template <typename T>
uint64_t Digest(const T& value) {
  Fnv1a fnv;
  fnv.Add(value);
  return fnv.value();
}

// A dense signal with exact zeros between its nonzeros: a power-law vector
// with every third coordinate cleared. n = 1000 is not a multiple of any
// block size, so the last block is partial.
std::vector<double> DenseSignal(uint64_t n, uint64_t seed) {
  std::vector<double> x = MakePowerLawSignal(n, 0.8, seed);
  for (uint64_t i = 0; i < n; i += 3) x[i] = 0.0;
  return x;
}

struct HashedRecoveryDigests {
  uint64_t width;
  HashedRecovery::Variant variant;
  uint64_t measure_dense;
  uint64_t measure_sparse;
  uint64_t recover_top_k;
  uint64_t estimates;
  uint64_t matrix;
};

TEST(HashedMapGoldenTest, HashedRecoveryOutputsAreBitIdentical) {
  constexpr auto kCs = HashedRecovery::Variant::kCountSketch;
  constexpr auto kCm = HashedRecovery::Variant::kCountMin;
  const HashedRecoveryDigests cases[] = {
      {64, kCs,
       0x49d99bec913e8c26ULL, 0x240497c3d81286fcULL, 0x77765fa30164a1fdULL,
       0xd88e6087ac3e1f03ULL, 0x500505159a114523ULL},
      {37, kCs,
       0x4977adebecbd26aeULL, 0x4bfe1f4923411fa8ULL, 0x34c6bf10dd8c8dbbULL,
       0x2a5e6bcc5fbf08eaULL, 0x38a52b80ffff0c03ULL},
      {64, kCm,
       0x2b44913a5cc54e23ULL, 0xc74745373956b4b9ULL, 0x5d433a1f0b54604eULL,
       0xf602546a6a23f25eULL, 0xfc39269824cfa2a3ULL},
      {37, kCm,
       0xf1bc9b5b9f3a28c4ULL, 0xbfa1d0460c16e22aULL, 0xfdd9a26b44ba6ee9ULL,
       0x883feb1c30ff6109ULL, 0x9d674b454e677e83ULL},
  };
  const uint64_t n = 1000, depth = 5, seed = 7;
  const std::vector<double> dense = DenseSignal(n, 11);
  const SparseVector sparse =
      MakeSparseSignal(n, 40, SignalValueDistribution::kGaussian, 12);
  for (const HashedRecoveryDigests& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "width " << c.width << " variant "
                 << static_cast<int>(c.variant));
    const HashedRecovery hr(c.variant, c.width, depth, n, seed);
    const std::vector<double> y = hr.Measure(dense);
    EXPECT_EQ(Digest(y), c.measure_dense);
    EXPECT_EQ(Digest(hr.Measure(sparse)), c.measure_sparse);
    EXPECT_EQ(Digest(hr.RecoverTopK(y, 25)), c.recover_top_k);
    std::vector<double> estimates;
    for (uint64_t i = 0; i < n; i += 7) {
      estimates.push_back(hr.EstimateCoordinate(y, i));
    }
    EXPECT_EQ(Digest(estimates), c.estimates);
    EXPECT_EQ(Digest(hr.ToMatrix()), c.matrix);
  }
}

TEST(HashedMapGoldenTest, BitTestRecoveryOutputsAreBitIdentical) {
  struct Case {
    uint64_t width;
    uint64_t dimension;
    uint64_t measure_sparse;
    uint64_t measure_dense;
    uint64_t recover;
  };
  const Case cases[] = {
      {32, 4096,
       0xb2ac1e8ef68571c6ULL, 0x494493f1e10f3473ULL, 0x100985f5fecbf471ULL},
      {19, 3000,
       0x013ac8718e46252fULL, 0x447e7b3007e2d06eULL, 0xb68ab4ab3246151fULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "width " << c.width);
    const BitTestRecovery btr(c.width, 3, c.dimension, 5);
    const SparseVector x = MakeSparseSignal(
        c.dimension, 12, SignalValueDistribution::kGaussian, 13);
    const std::vector<double> y = btr.Measure(x);
    EXPECT_EQ(Digest(y), c.measure_sparse);
    EXPECT_EQ(Digest(btr.Measure(DenseSignal(c.dimension, 14))),
              c.measure_dense);
    const BitTestRecovery::Result result = btr.Recover(y);
    Fnv1a fnv;
    fnv.Add(result.estimate);
    fnv.Add(static_cast<uint64_t>(result.rounds_used));
    fnv.Add(static_cast<uint64_t>(result.converged));
    EXPECT_EQ(fnv.value(), c.recover);
  }
}

TEST(HashedMapGoldenTest, HashedBlockMatricesAreBitIdentical) {
  struct Case {
    uint64_t width;
    uint64_t count_sketch;
    uint64_t count_min;
  };
  const Case cases[] = {
      {64, 0x12b73e4c02c8eb98ULL, 0x9a5fe2cfdcdd5218ULL},
      {37, 0x02fb856f60c4127dULL, 0xa53a0abd4a9bccfdULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "width " << c.width);
    EXPECT_EQ(Digest(MakeCountSketchMatrix(c.width, 4, 777, 21)),
              c.count_sketch);
    EXPECT_EQ(Digest(MakeCountMinMatrix(c.width, 4, 777, 21)), c.count_min);
  }
}

}  // namespace
}  // namespace sketch
