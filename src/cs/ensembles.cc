#include "cs/ensembles.h"

#include <algorithm>

#include "common/check.h"
#include "common/prng.h"
#include "kernels/hashed_rows.h"

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

CsrMatrix MakeHashedBlockMatrix(const HashedRows& rows, uint64_t cols) {
  std::vector<Triplet> triplets;
  triplets.reserve(cols * rows.depth());
  rows.ForEachCellOf(
      cols, [](uint64_t c) { return c; },
      [&](uint64_t j, uint64_t c, uint64_t bucket, int64_t sign) {
        triplets.push_back(
            {j * rows.width() + bucket, c, static_cast<double>(sign)});
      });
  return CsrMatrix::FromTriplets(rows.width() * rows.depth(), cols,
                                 std::move(triplets));
}

CsrMatrix MakeCountSketchMatrix(uint64_t width, uint64_t depth, uint64_t cols,
                                uint64_t seed) {
  return MakeHashedBlockMatrix(
      HashedRows(width, depth, seed, kCountSketchRows), cols);
}

CsrMatrix MakeCountMinMatrix(uint64_t width, uint64_t depth, uint64_t cols,
                             uint64_t seed) {
  return MakeHashedBlockMatrix(HashedRows(width, depth, seed, kCountMinRows),
                               cols);
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
