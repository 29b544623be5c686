#include "dimred/sketched_lowrank.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/prng.h"
#include "common/timer.h"
#include "kernels/hashed_rows.h"

namespace sketch {

namespace {

constexpr RowHashing kCountSketchColumnRows = {
    [](uint64_t s, uint64_t) { return SplitMix64Once(s * 13 + 1); },
    [](uint64_t s, uint64_t) { return SplitMix64Once(~s * 13 + 7); },
    2};

/// In-place modified Gram–Schmidt on the columns of `y`; returns the
/// number of numerically independent columns kept (others zeroed).
uint64_t GramSchmidt(DenseMatrix* y) {
  const uint64_t rows = y->rows();
  const uint64_t cols = y->cols();
  uint64_t kept = 0;
  for (uint64_t c = 0; c < cols; ++c) {
    double original_norm = 0.0;
    for (uint64_t r = 0; r < rows; ++r) {
      original_norm += y->At(r, c) * y->At(r, c);
    }
    original_norm = std::sqrt(original_norm);
    // Two projection passes ("twice is enough") keep the basis orthogonal
    // even when a column is nearly dependent on its predecessors.
    for (int pass = 0; pass < 2; ++pass) {
      for (uint64_t prev = 0; prev < c; ++prev) {
        double dot = 0.0;
        for (uint64_t r = 0; r < rows; ++r) {
          dot += y->At(r, prev) * y->At(r, c);
        }
        for (uint64_t r = 0; r < rows; ++r) {
          y->At(r, c) -= dot * y->At(r, prev);
        }
      }
    }
    double norm = 0.0;
    for (uint64_t r = 0; r < rows; ++r) norm += y->At(r, c) * y->At(r, c);
    norm = std::sqrt(norm);
    // A column whose residual is a tiny fraction of its original norm is
    // numerically dependent: normalizing it would promote rounding noise
    // to a full basis vector. Drop it instead.
    if (norm < 1e-10 * (original_norm + 1e-300)) {
      for (uint64_t r = 0; r < rows; ++r) y->At(r, c) = 0.0;
      continue;
    }
    for (uint64_t r = 0; r < rows; ++r) y->At(r, c) /= norm;
    ++kept;
  }
  return kept;
}

}  // namespace

LowRankResult RandomizedRangeFinder(const DenseMatrix& a, uint64_t rank,
                                    uint64_t oversampling,
                                    LowRankSketchType type, uint64_t seed) {
  const uint64_t rows = a.rows();
  const uint64_t cols = a.cols();
  const uint64_t l = rank + oversampling;
  SKETCH_CHECK(rank >= 1);
  SKETCH_CHECK(l <= cols);

  LowRankResult result;
  Timer timer;
  DenseMatrix y(rows, l);

  if (type == LowRankSketchType::kCountSketch) {
    // Y[:, h(j)] += sign(j) * A[:, j] — one pass over A.
    const HashedRows hashed(l, 1, seed, kCountSketchColumnRows);
    for (uint64_t r = 0; r < rows; ++r) {
      const std::vector<double> out = hashed.Apply({a.Row(r), cols});
      std::copy(out.begin(), out.end(), y.Row(r));
    }
  } else {
    // Y = A * G with G ~ N(0, 1), generated column-of-G-major so the
    // row-major pass over A stays cache friendly.
    Xoshiro256StarStar rng(seed);
    std::vector<double> g(cols * l);
    for (auto& v : g) v = rng.NextGaussian();
    for (uint64_t r = 0; r < rows; ++r) {
      const double* row = a.Row(r);
      double* out = y.Row(r);
      for (uint64_t j = 0; j < cols; ++j) {
        const double v = row[j];
        if (v == 0.0) continue;
        const double* g_row = &g[j * l];
        for (uint64_t t = 0; t < l; ++t) out[t] += v * g_row[t];
      }
    }
  }

  GramSchmidt(&y);
  result.basis = y;
  result.build_seconds = timer.ElapsedSeconds();
  return result;
}

double LowRankApproximationError(const DenseMatrix& a, const DenseMatrix& q) {
  SKETCH_CHECK(q.rows() == a.rows());
  const uint64_t rows = a.rows();
  const uint64_t cols = a.cols();
  const uint64_t l = q.cols();
  // B = Q^T A (l x cols).
  DenseMatrix b(l, cols);
  for (uint64_t r = 0; r < rows; ++r) {
    const double* a_row = a.Row(r);
    const double* q_row = q.Row(r);
    for (uint64_t t = 0; t < l; ++t) {
      const double qv = q_row[t];
      if (qv == 0.0) continue;
      double* b_row = b.Row(t);
      for (uint64_t c = 0; c < cols; ++c) b_row[c] += qv * a_row[c];
    }
  }
  // ||A - Q B||_F^2 accumulated row-wise.
  double err2 = 0.0;
  for (uint64_t r = 0; r < rows; ++r) {
    const double* a_row = a.Row(r);
    const double* q_row = q.Row(r);
    for (uint64_t c = 0; c < cols; ++c) {
      double recon = 0.0;
      for (uint64_t t = 0; t < l; ++t) recon += q_row[t] * b.At(t, c);
      const double d = a_row[c] - recon;
      err2 += d * d;
    }
  }
  return std::sqrt(err2);
}

double FrobeniusNorm(const DenseMatrix& a) {
  double s = 0.0;
  for (uint64_t r = 0; r < a.rows(); ++r) {
    const double* row = a.Row(r);
    for (uint64_t c = 0; c < a.cols(); ++c) s += row[c] * row[c];
  }
  return std::sqrt(s);
}

}  // namespace sketch
