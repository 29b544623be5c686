#include "dimred/jl_transform.h"

#include <cmath>

#include "common/check.h"
#include "common/prng.h"

namespace sketch {

std::vector<double> JlTransform::Apply(const SparseVector& x) const {
  return Apply(x.ToDense());
}

// ---------------------------------------------------------------------------
// DenseJlTransform

DenseJlTransform::DenseJlTransform(uint64_t input_dim, uint64_t output_dim,
                                   uint64_t seed)
    : matrix_(output_dim, input_dim) {
  SKETCH_CHECK(output_dim >= 1 && input_dim >= 1);
  matrix_.FillGaussian(seed);
}

std::vector<double> DenseJlTransform::Apply(
    const std::vector<double>& x) const {
  return matrix_.Multiply(x);
}

// ---------------------------------------------------------------------------
// SparseJlTransform

namespace {

constexpr RowHashing kSparseJlRows = {
    [](uint64_t s, uint64_t j) { return SplitMix64Once(s * 3 + j); },
    [](uint64_t s, uint64_t j) { return SplitMix64Once(~s * 3 + j + 0x51); },
    2};

constexpr RowHashing kCountSketchTransformRows = {
    [](uint64_t s, uint64_t) { return SplitMix64Once(s * 5 + 1); },
    [](uint64_t s, uint64_t) { return SplitMix64Once(~s * 5 + 2); },
    2};

// Rows per block; checked before the division.
uint64_t SparseJlBlockSize(uint64_t output_dim, int sparsity) {
  SKETCH_CHECK(sparsity >= 1);
  SKETCH_CHECK(output_dim >= static_cast<uint64_t>(sparsity));
  return output_dim / static_cast<uint64_t>(sparsity);
}

}  // namespace

SparseJlTransform::SparseJlTransform(uint64_t input_dim, uint64_t output_dim,
                                     int sparsity, uint64_t seed)
    : input_dim_(input_dim),
      scale_(1.0 / std::sqrt(static_cast<double>(sparsity))),
      rows_(SparseJlBlockSize(output_dim, sparsity),
            static_cast<uint64_t>(sparsity), seed, kSparseJlRows) {}

std::vector<double> SparseJlTransform::Apply(
    const std::vector<double>& x) const {
  SKETCH_CHECK(x.size() == input_dim_);
  return rows_.Apply(x, scale_);
}

std::vector<double> SparseJlTransform::Apply(const SparseVector& x) const {
  SKETCH_CHECK(x.dimension() == input_dim_);
  return rows_.ApplySparse(x.entries(), scale_);
}

// ---------------------------------------------------------------------------
// CountSketchTransform

CountSketchTransform::CountSketchTransform(uint64_t input_dim,
                                           uint64_t output_dim, uint64_t seed)
    : input_dim_(input_dim),
      rows_(output_dim, 1, seed, kCountSketchTransformRows) {
  SKETCH_CHECK(input_dim >= 1);
}

std::vector<double> CountSketchTransform::Apply(
    const std::vector<double>& x) const {
  SKETCH_CHECK(x.size() == input_dim_);
  return rows_.Apply(x);
}

std::vector<double> CountSketchTransform::Apply(const SparseVector& x) const {
  SKETCH_CHECK(x.dimension() == input_dim_);
  return rows_.ApplySparse(x.entries());
}

// ---------------------------------------------------------------------------
// FjltTransform

void WalshHadamardInPlace(std::vector<double>* x) {
  const uint64_t n = x->size();
  SKETCH_CHECK(n != 0 && (n & (n - 1)) == 0);
  std::vector<double>& a = *x;
  for (uint64_t len = 1; len < n; len <<= 1) {
    for (uint64_t i = 0; i < n; i += 2 * len) {
      for (uint64_t j = i; j < i + len; ++j) {
        const double u = a[j];
        const double v = a[j + len];
        a[j] = u + v;
        a[j + len] = u - v;
      }
    }
  }
}

FjltTransform::FjltTransform(uint64_t input_dim, uint64_t output_dim,
                             uint64_t seed)
    : input_dim_(input_dim) {
  SKETCH_CHECK(input_dim >= 1 && output_dim >= 1);
  padded_dim_ = 1;
  while (padded_dim_ < input_dim) padded_dim_ <<= 1;
  Xoshiro256StarStar rng(seed);
  signs_.resize(padded_dim_);
  for (auto& s : signs_) s = (rng.Next() & 1) ? 1 : -1;
  sampled_rows_.resize(output_dim);
  for (auto& r : sampled_rows_) r = rng.NextBounded(padded_dim_);
  // Normalization: with H~ = H/sqrt(n) orthonormal and rows sampled
  // uniformly, y_t = sqrt(n/m) * (H~ D x)_{r_t} keeps E||y||^2 = ||x||^2.
  // Composed with the unnormalized H this is a flat 1/sqrt(m) scale.
  scale_ = 1.0 / std::sqrt(static_cast<double>(output_dim));
}

std::vector<double> FjltTransform::Apply(const std::vector<double>& x) const {
  SKETCH_CHECK(x.size() == input_dim_);
  std::vector<double> padded(padded_dim_, 0.0);
  for (uint64_t i = 0; i < input_dim_; ++i) {
    padded[i] = signs_[i] * x[i];
  }
  WalshHadamardInPlace(&padded);
  std::vector<double> y(sampled_rows_.size());
  for (size_t t = 0; t < sampled_rows_.size(); ++t) {
    y[t] = padded[sampled_rows_[t]] * scale_;
  }
  return y;
}

}  // namespace sketch
