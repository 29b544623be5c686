#ifndef SKETCH_SKETCH_SUM_OF_SQUARES_H_
#define SKETCH_SKETCH_SUM_OF_SQUARES_H_

#include <cstdint>
#include <span>

namespace sketch {

/// Sum of c * c over `row`, each counter cast to double, returning exactly
/// the double that the left-to-right loop `sum += c * c` returns (see the
/// definition for why a faster order gives the same bits).
double SumOfSquares(std::span<const int64_t> row);

/// The F2 estimate of a hashed counter table (Count-Sketch, fast AMS): the
/// upper median over rows of each row's SumOfSquares. `counters` is
/// row-major with `width` counters per row and at least one row.
double MedianRowSumOfSquares(std::span<const int64_t> counters,
                             uint64_t width);

}  // namespace sketch

#endif  // SKETCH_SKETCH_SUM_OF_SQUARES_H_
