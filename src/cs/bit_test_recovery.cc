#include "cs/bit_test_recovery.h"

#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "sketch/counter_table.h"

namespace sketch {

BitTestRecovery::BitTestRecovery(uint64_t width, uint64_t depth,
                                 uint64_t dimension, uint64_t seed)
    : width_(width), depth_(depth), dimension_(dimension) {
  SKETCH_CHECK(width >= 1 && depth >= 1 && dimension >= 2);
  log_n_ = 0;
  while ((1ULL << log_n_) < dimension) ++log_n_;
  bucket_hashes_.reserve(depth);
  sign_hashes_.reserve(depth);
  for (uint64_t j = 0; j < depth; ++j) {
    bucket_hashes_.emplace_back(2, RowBucketSeed(seed, j));
    sign_hashes_.emplace_back(2, RowSignSeed(seed, j));
  }
}

std::vector<double> BitTestRecovery::Measure(const SparseVector& x) const {
  SKETCH_CHECK(x.dimension() == dimension_);
  std::vector<double> y(NumMeasurements(), 0.0);
  for (const SparseEntry& e : x.entries()) {
    for (uint64_t j = 0; j < depth_; ++j) {
      const uint64_t b = bucket_hashes_[j].Bucket(e.index, width_);
      const double signed_value = sign_hashes_[j].Sign(e.index) * e.value;
      y[CellIndex(j, b, 0)] += signed_value;
      for (uint64_t t = 0; t < log_n_; ++t) {
        if (e.index & (1ULL << t)) {
          y[CellIndex(j, b, 1 + t)] += signed_value;
        }
      }
    }
  }
  return y;
}

std::vector<double> BitTestRecovery::Measure(
    const std::vector<double>& x) const {
  return Measure(SparseVector::FromDense(x));
}

BitTestRecovery::Result BitTestRecovery::Recover(const std::vector<double>& y,
                                                 int max_rounds,
                                                 double tolerance) const {
  SKETCH_CHECK(y.size() == NumMeasurements());
  std::vector<double> work = y;
  std::unordered_map<uint64_t, double> found;

  // Global scale for "is this bucket empty" decisions.
  double max_mag = 0.0;
  for (double v : work) max_mag = std::max(max_mag, std::abs(v));
  const double empty_threshold = std::max(tolerance * max_mag, 1e-300);

  Result result;
  for (int round = 0; round < max_rounds; ++round) {
    bool progressed = false;
    for (uint64_t j = 0; j < depth_; ++j) {
      for (uint64_t b = 0; b < width_; ++b) {
        const double a0 = work[CellIndex(j, b, 0)];
        if (std::abs(a0) <= empty_threshold) continue;
        // Read the index bits; any intermediate counter value means a
        // collision in this bucket (resolve via other rows / later
        // rounds after peeling).
        uint64_t index = 0;
        bool clean = true;
        for (uint64_t t = 0; t < log_n_ && clean; ++t) {
          const double cell = work[CellIndex(j, b, 1 + t)];
          if (std::abs(cell - a0) <= tolerance * std::abs(a0)) {
            index |= 1ULL << t;
          } else if (std::abs(cell) > tolerance * std::abs(a0)) {
            clean = false;  // neither ~0 nor ~a0: collision
          }
        }
        if (!clean || index >= dimension_) continue;
        // Validate against this row's own hash (cheap consistency check).
        if (bucket_hashes_[j].Bucket(index, width_) != b) continue;

        const double value = sign_hashes_[j].Sign(index) * a0;
        found[index] += value;
        if (std::abs(found[index]) <= empty_threshold) found.erase(index);
        // Peel from every row.
        for (uint64_t jj = 0; jj < depth_; ++jj) {
          const uint64_t bb = bucket_hashes_[jj].Bucket(index, width_);
          const double sv = sign_hashes_[jj].Sign(index) * value;
          work[CellIndex(jj, bb, 0)] -= sv;
          for (uint64_t t = 0; t < log_n_; ++t) {
            if (index & (1ULL << t)) work[CellIndex(jj, bb, 1 + t)] -= sv;
          }
        }
        progressed = true;
      }
    }
    result.rounds_used = round + 1;
    if (!progressed) break;
  }

  double residual = 0.0;
  for (uint64_t j = 0; j < depth_; ++j) {
    for (uint64_t b = 0; b < width_; ++b) {
      residual = std::max(residual, std::abs(work[CellIndex(j, b, 0)]));
    }
  }
  result.converged = residual <= empty_threshold;

  std::vector<SparseEntry> entries;
  entries.reserve(found.size());
  for (const auto& [index, value] : found) entries.push_back({index, value});
  result.estimate = SparseVector::FromEntries(dimension_, std::move(entries));
  return result;
}

}  // namespace sketch
