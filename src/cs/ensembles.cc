#include "cs/ensembles.h"

#include <algorithm>

#include "common/check.h"
#include "common/prng.h"
#include "hash/kwise_hash.h"
#include "sketch/counter_table.h"

namespace sketch {

CsrMatrix MakeSparseBinaryMatrix(uint64_t rows, uint64_t cols,
                                 int ones_per_column, uint64_t seed) {
  SKETCH_CHECK(ones_per_column >= 1);
  SKETCH_CHECK(rows >= static_cast<uint64_t>(ones_per_column));
  Xoshiro256StarStar rng(seed);
  std::vector<Triplet> triplets;
  triplets.reserve(cols * ones_per_column);
  std::vector<uint64_t> picked;
  for (uint64_t c = 0; c < cols; ++c) {
    picked.clear();
    while (picked.size() < static_cast<size_t>(ones_per_column)) {
      const uint64_t r = rng.NextBounded(rows);
      if (std::find(picked.begin(), picked.end(), r) == picked.end()) {
        picked.push_back(r);
      }
    }
    for (uint64_t r : picked) triplets.push_back({r, c, 1.0});
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

namespace {

CsrMatrix MakeHashedBlockMatrix(uint64_t width, uint64_t depth, uint64_t cols,
                                uint64_t seed, bool signed_entries) {
  SKETCH_CHECK(width >= 1 && depth >= 1);
  std::vector<Triplet> triplets;
  triplets.reserve(cols * depth);
  for (uint64_t j = 0; j < depth; ++j) {
    const KWiseHash bucket_hash(2, RowBucketSeed(seed, j));
    const KWiseHash sign_hash(2, RowSignSeed(seed, j));
    for (uint64_t c = 0; c < cols; ++c) {
      const uint64_t r = j * width + bucket_hash.Bucket(c, width);
      const double v = signed_entries
                           ? static_cast<double>(sign_hash.Sign(c))
                           : 1.0;
      triplets.push_back({r, c, v});
    }
  }
  return CsrMatrix::FromTriplets(width * depth, cols, std::move(triplets));
}

}  // namespace

CsrMatrix MakeCountSketchMatrix(uint64_t width, uint64_t depth, uint64_t cols,
                                uint64_t seed) {
  return MakeHashedBlockMatrix(width, depth, cols, seed,
                               /*signed_entries=*/true);
}

CsrMatrix MakeCountMinMatrix(uint64_t width, uint64_t depth, uint64_t cols,
                             uint64_t seed) {
  return MakeHashedBlockMatrix(width, depth, cols, seed,
                               /*signed_entries=*/false);
}

DenseMatrix MakeGaussianMatrix(uint64_t rows, uint64_t cols, uint64_t seed) {
  DenseMatrix m(rows, cols);
  m.FillGaussian(seed);
  return m;
}

DenseMatrix MakeRademacherMatrix(uint64_t rows, uint64_t cols, uint64_t seed) {
  DenseMatrix m(rows, cols);
  m.FillRademacher(seed);
  return m;
}

}  // namespace sketch
