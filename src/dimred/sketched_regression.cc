#include "dimred/sketched_regression.h"

#include <cmath>

#include "common/check.h"
#include "common/metrics.h"
#include "common/prng.h"
#include "common/timer.h"
#include "kernels/hashed_rows.h"
#include "linalg/least_squares.h"

namespace sketch {

namespace {
constexpr RowHashing kOsnapRows = {
    [](uint64_t s, uint64_t j) { return SplitMix64Once(s * 29 + j); },
    [](uint64_t s, uint64_t j) { return SplitMix64Once(~s * 29 + j + 5); },
    2};

constexpr RowHashing kCountSketchRegressionRows = {
    [](uint64_t s, uint64_t) { return SplitMix64Once(s * 11 + 1); },
    [](uint64_t s, uint64_t) { return SplitMix64Once(~s * 11 + 5); },
    2};
}  // namespace

SketchedRegressionResult SolveSketchedRegression(const DenseMatrix& a,
                                                 const std::vector<double>& b,
                                                 uint64_t sketch_rows,
                                                 RegressionSketchType type,
                                                 uint64_t seed,
                                                 int osnap_sparsity) {
  const uint64_t n = a.rows();
  const uint64_t d = a.cols();
  SKETCH_CHECK(b.size() == n);
  SKETCH_CHECK(sketch_rows >= d + 1);
  SKETCH_CHECK(sketch_rows <= n);

  SketchedRegressionResult result;
  Timer timer;

  // Form SA (m x d) and Sb (m).
  DenseMatrix sa(sketch_rows, d);
  std::vector<double> sb(sketch_rows, 0.0);

  if (type == RegressionSketchType::kOsnap ||
      type == RegressionSketchType::kCountSketch) {
    // OSNAP [NN12]: the output is split into s blocks; each input row
    // lands once per block with a ±1/sqrt(s) sign. One pass over A,
    // O(s * nnz(A)) work; subspace embedding already at m = O~(d).
    // Count-Sketch is the s = 1 case: O(nnz(A) + m d) total.
    const bool osnap = type == RegressionSketchType::kOsnap;
    const int s = osnap ? osnap_sparsity : 1;
    SKETCH_CHECK(s >= 1 && static_cast<uint64_t>(s) <= sketch_rows);
    const HashedRows rows(sketch_rows / static_cast<uint64_t>(s),
                          static_cast<uint64_t>(s), seed,
                          osnap ? kOsnapRows : kCountSketchRegressionRows);
    const double scale = 1.0 / std::sqrt(static_cast<double>(s));
    rows.ForEachCellOf(
        n, [](uint64_t r) { return r; },
        [&](uint64_t j, uint64_t r, uint64_t bucket, int64_t g) {
          const uint64_t out = j * rows.width() + bucket;
          const double sign = static_cast<double>(g) * scale;
          const double* row = a.Row(r);
          double* out_row = sa.Row(out);
          for (uint64_t c = 0; c < d; ++c) out_row[c] += sign * row[c];
          sb[out] += sign * b[r];
        });
  } else {
    // Dense Gaussian sketch: S is m x n with N(0, 1/m) entries. Stream S
    // row-block-wise to avoid materializing it: for each input row r,
    // accumulate its contribution to all m output rows — O(n m d).
    Xoshiro256StarStar rng(seed);
    const double scale = 1.0 / std::sqrt(static_cast<double>(sketch_rows));
    for (uint64_t r = 0; r < n; ++r) {
      const double* row = a.Row(r);
      for (uint64_t out = 0; out < sketch_rows; ++out) {
        const double s = rng.NextGaussian() * scale;
        if (s == 0.0) continue;
        double* out_row = sa.Row(out);
        for (uint64_t c = 0; c < d; ++c) out_row[c] += s * row[c];
        sb[out] += s * b[r];
      }
    }
  }
  result.sketch_seconds = timer.ElapsedSeconds();

  timer.Reset();
  result.solution = SolveLeastSquaresQr(sa, sb);
  result.solve_seconds = timer.ElapsedSeconds();
  return result;
}

double RegressionResidual(const DenseMatrix& a, const std::vector<double>& x,
                          const std::vector<double>& b) {
  const std::vector<double> ax = a.Multiply(x);
  return L2Distance(ax, b) / L2Norm(b);
}

}  // namespace sketch
