#include "cs/hashed_recovery.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "cs/ensembles.h"

namespace sketch {

HashedRecovery::HashedRecovery(Variant variant, uint64_t width, uint64_t depth,
                               uint64_t dimension, uint64_t seed)
    : dimension_(dimension),
      rows_(width, depth, seed,
            variant == Variant::kCountSketch ? kCountSketchRows
                                             : kCountMinRows) {
  SKETCH_CHECK(dimension >= 1);
  SKETCH_CHECK_MSG(depth <= kMaxDepth, "hashed recovery depth exceeds 64");
}

std::vector<double> HashedRecovery::Measure(
    const std::vector<double>& x) const {
  SKETCH_CHECK(x.size() == dimension_);
  return rows_.Apply(x);
}

std::vector<double> HashedRecovery::Measure(const SparseVector& x) const {
  SKETCH_CHECK(x.dimension() == dimension_);
  return rows_.ApplySparse(x.entries());
}

void HashedRecovery::RowEstimates(const std::vector<double>& y,
                                  const uint64_t* keys, std::size_t n,
                                  double* estimates) const {
  for (uint64_t j = 0; j < depth(); ++j) {
    const double* row = y.data() + j * width();
    rows_.ForEachCell(j, keys, n,
                      [&](std::size_t i, uint64_t bucket, int64_t sign) {
                        estimates[i * depth() + j] =
                            static_cast<double>(sign) * row[bucket];
                      });
  }
}

double HashedRecovery::Combine(double* row_estimates) const {
  double* const end = row_estimates + depth();
  if (!rows_.is_signed()) {
    // Min estimator (assumes a nonnegative signal; for general signals the
    // median of rows is used instead, giving a weaker two-sided bound).
    return *std::min_element(row_estimates, end);
  }
  double* const mid = row_estimates + depth() / 2;
  std::nth_element(row_estimates, mid, end);
  return *mid;
}

double HashedRecovery::EstimateCoordinate(const std::vector<double>& y,
                                          uint64_t i) const {
  SKETCH_CHECK(y.size() == NumMeasurements());
  double row_estimates[kMaxDepth];
  RowEstimates(y, &i, 1, row_estimates);
  return Combine(row_estimates);
}

SparseVector HashedRecovery::RecoverTopK(const std::vector<double>& y,
                                         uint64_t k) const {
  SKETCH_CHECK(y.size() == NumMeasurements());
  std::vector<SparseEntry> estimates;
  estimates.reserve(dimension_);
  std::vector<double> row_estimates(HashedRows::kBlock * depth());
  uint64_t keys[HashedRows::kBlock];
  for (uint64_t start = 0; start < dimension_; start += HashedRows::kBlock) {
    const std::size_t n = std::min<uint64_t>(HashedRows::kBlock,
                                             dimension_ - start);
    for (std::size_t i = 0; i < n; ++i) keys[i] = start + i;
    RowEstimates(y, keys, n, row_estimates.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double v = Combine(row_estimates.data() + i * depth());
      if (v != 0.0) estimates.push_back({keys[i], v});
    }
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
  return MakeHashedBlockMatrix(rows_, dimension_);
}

}  // namespace sketch
