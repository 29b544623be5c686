#include "cs/bit_test_recovery.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/check.h"

namespace sketch {

BitTestRecovery::BitTestRecovery(uint64_t width, uint64_t depth,
                                 uint64_t dimension, uint64_t seed)
    : dimension_(dimension),
      log_n_(std::bit_width(dimension - 1)),
      rows_(width, depth, seed, kCountSketchRows) {
  SKETCH_CHECK(dimension >= 2);
}

std::vector<double> BitTestRecovery::Measure(const SparseVector& x) const {
  SKETCH_CHECK(x.dimension() == dimension_);
  std::vector<double> y(NumMeasurements(), 0.0);
  const std::vector<SparseEntry>& entries = x.entries();
  rows_.ForEachCellOf(
      entries.size(), [&](uint64_t p) { return entries[p].index; },
      [&](uint64_t j, uint64_t p, uint64_t b, int64_t sign) {
        const double signed_value =
            static_cast<double>(sign) * entries[p].value;
        double* cells = y.data() + CellIndex(j, b, 0);
        cells[0] += signed_value;
        for (uint64_t t = 0; t < log_n_; ++t) {
          if (entries[p].index & (1ULL << t)) cells[1 + t] += signed_value;
        }
      });
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
    for (uint64_t j = 0; j < depth(); ++j) {
      for (uint64_t b = 0; b < width(); ++b) {
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
        if (rows_.BucketOf(j, index) != b) continue;

        const double value = static_cast<double>(rows_.SignOf(j, index)) * a0;
        found[index] += value;
        if (std::abs(found[index]) <= empty_threshold) found.erase(index);
        // Peel from every row.
        for (uint64_t jj = 0; jj < depth(); ++jj) {
          const uint64_t bb = rows_.BucketOf(jj, index);
          const double sv =
              static_cast<double>(rows_.SignOf(jj, index)) * value;
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
  for (uint64_t j = 0; j < depth(); ++j) {
    for (uint64_t b = 0; b < width(); ++b) {
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
