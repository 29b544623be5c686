#include "cs/hashed_recovery.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "sketch/counter_table.h"

namespace sketch {

HashedRecovery::HashedRecovery(Variant variant, uint64_t width, uint64_t depth,
                               uint64_t dimension, uint64_t seed)
    : variant_(variant), width_(width), depth_(depth), dimension_(dimension) {
  SKETCH_CHECK(width >= 1 && depth >= 1 && dimension >= 1);
  SKETCH_CHECK_MSG(width <= UINT64_MAX / depth,
                   "measurement count width * depth overflows");
  bucket_hashes_.reserve(depth);
  sign_hashes_.reserve(depth);
  for (uint64_t j = 0; j < depth; ++j) {
    bucket_hashes_.emplace_back(2, RowBucketSeed(seed, j));
    sign_hashes_.emplace_back(2, RowSignSeed(seed, j));
  }
}

int HashedRecovery::SignOf(uint64_t row, uint64_t i) const {
  return variant_ == Variant::kCountSketch ? sign_hashes_[row].Sign(i) : 1;
}

std::vector<double> HashedRecovery::Measure(
    const std::vector<double>& x) const {
  SKETCH_CHECK(x.size() == dimension_);
  std::vector<double> y(NumMeasurements(), 0.0);
  for (uint64_t i = 0; i < dimension_; ++i) {
    if (x[i] == 0.0) continue;
    for (uint64_t j = 0; j < depth_; ++j) {
      y[j * width_ + BucketOf(j, i)] += SignOf(j, i) * x[i];
    }
  }
  return y;
}

std::vector<double> HashedRecovery::Measure(const SparseVector& x) const {
  SKETCH_CHECK(x.dimension() == dimension_);
  std::vector<double> y(NumMeasurements(), 0.0);
  for (const SparseEntry& e : x.entries()) {
    for (uint64_t j = 0; j < depth_; ++j) {
      y[j * width_ + BucketOf(j, e.index)] += SignOf(j, e.index) * e.value;
    }
  }
  return y;
}

double HashedRecovery::EstimateCoordinate(const std::vector<double>& y,
                                          uint64_t i) const {
  SKETCH_CHECK(y.size() == NumMeasurements());
  std::vector<double> row_estimates(depth_);
  for (uint64_t j = 0; j < depth_; ++j) {
    row_estimates[j] = SignOf(j, i) * y[j * width_ + BucketOf(j, i)];
  }
  if (variant_ == Variant::kCountMin) {
    // Min estimator (assumes a nonnegative signal; for general signals the
    // median of rows is used instead, giving a weaker two-sided bound).
    return *std::min_element(row_estimates.begin(), row_estimates.end());
  }
  const auto mid = row_estimates.begin() + depth_ / 2;
  std::nth_element(row_estimates.begin(), mid, row_estimates.end());
  return *mid;
}

SparseVector HashedRecovery::RecoverTopK(const std::vector<double>& y,
                                         uint64_t k) const {
  std::vector<SparseEntry> estimates;
  estimates.reserve(dimension_);
  for (uint64_t i = 0; i < dimension_; ++i) {
    const double v = EstimateCoordinate(y, i);
    if (v != 0.0) estimates.push_back({i, v});
  }
  if (estimates.size() > k) {
    // NaN measurements (possible with untrusted y) would break the strict
    // weak ordering nth_element requires; rank them below every finite
    // magnitude so the selection stays well defined.
    const auto magnitude = [](const SparseEntry& e) {
      const double m = std::abs(e.value);
      return std::isnan(m) ? -1.0 : m;
    };
    std::nth_element(
        estimates.begin(),
        estimates.begin() + static_cast<std::ptrdiff_t>(k), estimates.end(),
        [&magnitude](const SparseEntry& a, const SparseEntry& b) {
          return magnitude(a) > magnitude(b);
        });
    estimates.resize(k);
  }
  return SparseVector::FromEntries(dimension_, std::move(estimates));
}

CsrMatrix HashedRecovery::ToMatrix() const {
  std::vector<Triplet> triplets;
  triplets.reserve(dimension_ * depth_);
  for (uint64_t j = 0; j < depth_; ++j) {
    for (uint64_t i = 0; i < dimension_; ++i) {
      triplets.push_back({j * width_ + BucketOf(j, i),
                          i,
                          static_cast<double>(SignOf(j, i))});
    }
  }
  return CsrMatrix::FromTriplets(NumMeasurements(), dimension_,
                                 std::move(triplets));
}

}  // namespace sketch
