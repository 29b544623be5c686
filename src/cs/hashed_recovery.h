#ifndef SKETCH_CS_HASHED_RECOVERY_H_
#define SKETCH_CS_HASHED_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/hashed_rows.h"
#include "linalg/csr_matrix.h"
#include "linalg/sparse_vector.h"

namespace sketch {

/// Sparse recovery via hashing, the [CM06] observation at the heart of the
/// survey: the Count-Sketch / Count-Min update process *is* a compressed-
/// sensing measurement map, and its point-query estimator *is* a recovery
/// procedure. With m = O(k log n) measurements (width O(k), depth
/// O(log n)), estimating every coordinate and keeping the top k yields a
/// k-sparse approximation with the ℓ2 (Count-Sketch) or ℓ1 (Count-Min)
/// guarantee, in O(n log n) decode time — versus Ω(nm) for dense-matrix
/// algorithms.
///
/// This class owns the hashed rows, so measuring and recovering are
/// guaranteed to agree. `variant` selects the sign behaviour:
///  - kCountSketch: ±1 entries, median estimator (unbiased; any signal);
///  - kCountMin:    +1 entries, min estimator (nonnegative signals) or
///                  median estimator (general signals; weaker guarantee).
class HashedRecovery {
 public:
  enum class Variant { kCountSketch, kCountMin };

  /// Most rows a map may have: a coordinate's row estimates live on the
  /// stack. The failure probability falls as 2^-Ω(depth), so O(log n) rows
  /// stay far below it.
  static constexpr uint64_t kMaxDepth = 64;

  /// \param width  buckets per row; O(k/eps) gives the (1+eps) guarantee.
  /// \param depth  rows; O(log n) drives the failure probability down.
  HashedRecovery(Variant variant, uint64_t width, uint64_t depth,
                 uint64_t dimension, uint64_t seed);

  /// Number of measurements m = width * depth.
  uint64_t NumMeasurements() const { return width() * depth(); }

  /// y = A x for a dense signal. O(n * depth).
  std::vector<double> Measure(const std::vector<double>& x) const;

  /// y = A x for a sparse signal. O(nnz(x) * depth).
  std::vector<double> Measure(const SparseVector& x) const;

  /// Point estimate of coordinate `i` from measurements `y`.
  double EstimateCoordinate(const std::vector<double>& y, uint64_t i) const;

  /// Full recovery: estimates every coordinate and keeps the k of largest
  /// magnitude. O(n * depth + n log n).
  SparseVector RecoverTopK(const std::vector<double>& y, uint64_t k) const;

  /// The explicit matrix this operator implements (for tests and for
  /// feeding the same ensemble to generic algorithms).
  CsrMatrix ToMatrix() const;

  Variant variant() const {
    return rows_.is_signed() ? Variant::kCountSketch : Variant::kCountMin;
  }
  uint64_t width() const { return rows_.width(); }
  uint64_t depth() const { return rows_.depth(); }
  uint64_t dimension() const { return dimension_; }

 private:
  /// estimates[i * depth() + j] = row j's estimate of coordinate keys[i],
  /// for i < n <= HashedRows::kBlock.
  void RowEstimates(const std::vector<double>& y, const uint64_t* keys,
                    std::size_t n, double* estimates) const;
  /// The min (Count-Min) or median (Count-Sketch) of one coordinate's
  /// depth() row estimates, in row order; reorders them.
  double Combine(double* row_estimates) const;

  uint64_t dimension_;
  HashedRows rows_;
};

}  // namespace sketch

#endif  // SKETCH_CS_HASHED_RECOVERY_H_
