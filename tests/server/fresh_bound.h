// Reference error bounds recomputed from a served sketch's snapshot by a
// full scan, with no cache in the way. The service caches the scans behind
// its bounds until the next ingest; every served bound must equal these
// bit for bit (compare with ==, never a tolerance).

#ifndef SKETCH_TESTS_SERVER_FRESH_BOUND_H_
#define SKETCH_TESTS_SERVER_FRESH_BOUND_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sketch/bloom_filter.h"
#include "sketch/count_sketch.h"
#include "sketch/stream_summary.h"

namespace sketch::server {

/// sqrt(3 * F2 / width) for a CountSketch blob. F2 is the upper median
/// over rows of each row's sum of squared counters, summed in row order
/// in double precision.
inline double FreshCountSketchBound(const std::vector<uint8_t>& blob) {
  const CountSketch sketch =
      CountSketch::TryDeserialize(blob, nullptr).value();
  std::vector<double> rows;
  for (uint64_t j = 0; j < sketch.depth(); ++j) {
    double sum = 0.0;
    for (uint64_t b = 0; b < sketch.width(); ++b) {
      const auto c = static_cast<double>(sketch.CounterAt(j, b));
      sum += c * c;
    }
    rows.push_back(sum);
  }
  std::nth_element(rows.begin(), rows.begin() + rows.size() / 2, rows.end());
  const double f2 = rows[rows.size() / 2];
  return std::sqrt(3.0 * f2 / static_cast<double>(sketch.width()));
}

/// FillRatio^num_hashes for a Bloom blob.
inline double FreshBloomBound(const std::vector<uint8_t>& blob) {
  const BloomFilter filter =
      BloomFilter::TryDeserialize(blob, nullptr).value();
  return std::pow(filter.FillRatio(), filter.num_hashes());
}

/// sqrt(3 * F2 / verify_width) for a StreamSummary blob, F2 from its AMS
/// sketch.
inline double FreshSummaryBound(const std::vector<uint8_t>& blob) {
  const StreamSummary summary =
      StreamSummary::TryDeserialize(blob, nullptr).value();
  const auto width = static_cast<double>(summary.options().verify_width);
  return std::sqrt(3.0 * summary.EstimateF2() / width);
}

}  // namespace sketch::server

#endif  // SKETCH_TESTS_SERVER_FRESH_BOUND_H_
