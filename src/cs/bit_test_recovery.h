#ifndef SKETCH_CS_BIT_TEST_RECOVERY_H_
#define SKETCH_CS_BIT_TEST_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "kernels/hashed_rows.h"
#include "linalg/sparse_vector.h"

namespace sketch {

/// Sub-linear-time sparse recovery via bit-test measurements — the
/// "pre-identification procedure" of [GGI+02b] (survey §1 footnote 2, and
/// the mechanism behind the sublinear decoders of [GLPS10]).
///
/// Each hash bucket stores 1 + log2(n) counters: the plain signed sum of
/// its coordinates, plus one sum restricted to coordinates whose t-th
/// index bit is 1. A bucket containing a single heavy coordinate reveals
/// that coordinate's *index* directly: bit t is 1 iff the t-th restricted
/// counter matches the full counter (and 0 iff it is ~0); anything in
/// between exposes a collision. Identified coordinates are peeled and the
/// scan repeats, so decoding costs O(depth * width * log n) — independent
/// of the ambient dimension n, versus the Θ(n * depth) estimate-every-
/// coordinate scan of HashedRecovery.
///
/// The price is a log(n) factor in measurements: m = depth*width*(1+log n)
/// — exactly the time-vs-measurements trade the survey describes for
/// [GLPS10]-style algorithms.
class BitTestRecovery {
 public:
  /// \param width   buckets per row (O(k) for k-sparse signals).
  /// \param depth   rows; a few are enough since peeling iterates.
  BitTestRecovery(uint64_t width, uint64_t depth, uint64_t dimension,
                  uint64_t seed);

  /// Number of scalar measurements (depth * width * (1 + log2 n)).
  uint64_t NumMeasurements() const {
    return width() * depth() * (1 + log_n_);
  }

  /// y = A x for a sparse signal; O(nnz(x) * depth * log n).
  std::vector<double> Measure(const SparseVector& x) const;

  /// y = A x for a dense signal.
  std::vector<double> Measure(const std::vector<double>& x) const;

  /// Result of a recovery run.
  struct Result {
    SparseVector estimate;
    int rounds_used = 0;
    bool converged = false;  ///< all bucket energy explained
  };

  /// Peeling decoder; `max_rounds` bounds the peel iterations. The
  /// relative `tolerance` decides when a restricted counter counts as
  /// "equal to" the full counter (raise for noisy measurements).
  Result Recover(const std::vector<double>& y, int max_rounds = 16,
                 double tolerance = 1e-6) const;

  uint64_t width() const { return rows_.width(); }
  uint64_t depth() const { return rows_.depth(); }
  uint64_t dimension() const { return dimension_; }

 private:
  uint64_t CellIndex(uint64_t row, uint64_t bucket, uint64_t cell) const {
    return (row * width() + bucket) * (1 + log_n_) + cell;
  }

  uint64_t dimension_;
  uint64_t log_n_;  // ceil(log2(dimension))
  HashedRows rows_;
};

}  // namespace sketch

#endif  // SKETCH_CS_BIT_TEST_RECOVERY_H_
