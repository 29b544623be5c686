#include "sketch/sum_of_squares.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"

// The exactness argument in SumOfSquares and its sequential fallback both
// assume IEEE binary64 arithmetic, rounded to nearest and evaluated as
// written. -ffast-math licenses reassociation, which would change the
// fallback's bits, so this file refuses to build under it.
#ifdef __FAST_MATH__
#error "SumOfSquares needs IEEE arithmetic: build without -ffast-math"
#endif
static_assert(std::numeric_limits<double>::is_iec559,
              "SumOfSquares assumes IEEE 754 binary64 doubles");

namespace sketch {

namespace {

/// 2^53: every integer in [0, 2^53] is a double, and 2^53 is where the
/// gap between adjacent doubles grows to 2.
constexpr double kExactLimit = 9007199254740992.0;

/// The reference scan: one dependent double add per counter, left to
/// right. Its result is the one every caller has always been served.
double SequentialSumOfSquares(std::span<const int64_t> row) {
  double sum = 0.0;
  for (const int64_t counter : row) {
    const auto c = static_cast<double>(counter);
    sum += c * c;
  }
  return sum;
}

}  // namespace

/// The fast pass sums the squares into kLanes independent accumulators,
/// one block at a time, and returns its total only when that total is
/// below 2^53; otherwise it falls back to the sequential scan. The fast
/// result is exactly the sequential one. Let T be the exact integer sum
/// of c * c over the row.
///  - Every term is >= 0, so every partial sum, in any order, is <= T.
///  - If T < 2^53, every cast, product and partial sum is an integer
///    below 2^53, hence a double, so every floating-point step is exact
///    and every summation order yields T: the fast pass and the
///    sequential scan agree.
///  - Rounding is monotone and 2^53 is a double, so once the exact result
///    of a step (the magnitude of a cast, a product, or a sum of
///    partials) reaches 2^53, its rounded result does too, and adding
///    further non-negative terms keeps it there. So T >= 2^53 forces the
///    computed total to be >= 2^53, and the gate never admits an inexact
///    result.
/// The same reasoning lets the fast pass give up after any block whose
/// running total has reached 2^53.
double SumOfSquares(std::span<const int64_t> row) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kBlock = 1024;  // a multiple of kLanes
  const int64_t* data = row.data();
  const std::size_t size = row.size();
  double total = 0.0;
  for (std::size_t start = 0; start < size; start += kBlock) {
    const std::size_t end = std::min(size, start + kBlock);
    double lanes[kLanes] = {};
    std::size_t i = start;
    for (; i + kLanes <= end; i += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const auto c = static_cast<double>(data[i + l]);
        lanes[l] += c * c;
      }
    }
    for (; i < end; ++i) {
      const auto c = static_cast<double>(data[i]);
      lanes[0] += c * c;
    }
    for (const double lane : lanes) total += lane;
    if (total >= kExactLimit) return SequentialSumOfSquares(row);
  }
  return total;
}

double MedianRowSumOfSquares(std::span<const int64_t> counters,
                             uint64_t width) {
  SKETCH_CHECK(width >= 1 && counters.size() >= width &&
               counters.size() % width == 0);
  const std::size_t depth = counters.size() / width;
  std::vector<double> rows(depth);
  for (std::size_t j = 0; j < depth; ++j) {
    rows[j] = SumOfSquares(counters.subspan(j * width, width));
  }
  const auto mid = rows.begin() + static_cast<std::ptrdiff_t>(depth / 2);
  std::nth_element(rows.begin(), mid, rows.end());
  return *mid;
}

}  // namespace sketch
