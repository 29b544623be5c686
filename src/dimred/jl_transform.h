#ifndef SKETCH_DIMRED_JL_TRANSFORM_H_
#define SKETCH_DIMRED_JL_TRANSFORM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/hashed_rows.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_vector.h"

namespace sketch {

/// Interface for Johnson–Lindenstrauss-style dimensionality reducers
/// (§3 of the survey): linear maps R^n -> R^m that preserve ℓ2 norms to
/// 1 ± eps with probability 1 - delta when m = O(eps^-2 log(1/delta)).
///
/// The concrete implementations span the survey's design space:
///  - DenseJlTransform:    the original [JL84] dense Gaussian map, O(nm);
///  - SparseJlTransform:   [KN12] block construction, s nonzeros/column,
///                         O(s · nnz(x)) per application;
///  - CountSketchTransform: s = 1 [CW13/WDL+09] — the hashing process
///                         itself as a JL map, O(nnz(x)) per application;
///  - FjltTransform:       [AC10] structured Hadamard map, O(n log n).
class JlTransform {
 public:
  virtual ~JlTransform() = default;

  /// Projects a dense vector of length `input_dimension()`.
  virtual std::vector<double> Apply(const std::vector<double>& x) const = 0;

  /// Projects a sparse vector (default: densify; sparse-aware subclasses
  /// override with O(nnz)-time paths).
  virtual std::vector<double> Apply(const SparseVector& x) const;

  virtual uint64_t input_dimension() const = 0;
  virtual uint64_t output_dimension() const = 0;

  /// Human-readable name for experiment tables.
  virtual const char* Name() const = 0;
};

/// Dense Gaussian JL map: entries i.i.d. N(0, 1/m).
class DenseJlTransform final : public JlTransform {
 public:
  DenseJlTransform(uint64_t input_dim, uint64_t output_dim, uint64_t seed);

  std::vector<double> Apply(const std::vector<double>& x) const override;
  uint64_t input_dimension() const override { return matrix_.cols(); }
  uint64_t output_dimension() const override { return matrix_.rows(); }
  const char* Name() const override { return "dense-gaussian"; }

 private:
  DenseMatrix matrix_;
};

/// Sparse JL map, Kane–Nelson block construction: the output is divided
/// into `sparsity` blocks of m/s rows; each input coordinate gets one
/// ±1/sqrt(s) entry per block at a hashed row.
class SparseJlTransform final : public JlTransform {
 public:
  /// `output_dim` is rounded down to a multiple of `sparsity`.
  SparseJlTransform(uint64_t input_dim, uint64_t output_dim, int sparsity,
                    uint64_t seed);

  std::vector<double> Apply(const std::vector<double>& x) const override;
  std::vector<double> Apply(const SparseVector& x) const override;
  uint64_t input_dimension() const override { return input_dim_; }
  uint64_t output_dimension() const override {
    return rows_.width() * rows_.depth();
  }
  const char* Name() const override { return "sparse-jl"; }

  int sparsity() const { return static_cast<int>(rows_.depth()); }

 private:
  uint64_t input_dim_;
  double scale_;
  HashedRows rows_;  // one row of output_dim / sparsity buckets per block
};

/// Count-Sketch transform (sparse embedding, s = 1): one ±1 entry per
/// column. The survey's §3 point: the heavy-hitters data structure *is*
/// an optimal-dimension JL map with O(nnz(x)) application time.
class CountSketchTransform final : public JlTransform {
 public:
  CountSketchTransform(uint64_t input_dim, uint64_t output_dim, uint64_t seed);

  std::vector<double> Apply(const std::vector<double>& x) const override;
  std::vector<double> Apply(const SparseVector& x) const override;
  uint64_t input_dimension() const override { return input_dim_; }
  uint64_t output_dimension() const override { return rows_.width(); }
  const char* Name() const override { return "countsketch"; }

 private:
  uint64_t input_dim_;
  HashedRows rows_;  // one row of output_dim buckets
};

/// Fast JL transform [AC10]: x -> sample_m( H (D x) ) * sqrt(n/m), where D
/// is a random diagonal ±1 matrix and H the Walsh–Hadamard transform
/// (input padded to the next power of two). O(n log n) regardless of
/// sparsity — the structured-matrix alternative the survey contrasts with
/// sparse maps.
class FjltTransform final : public JlTransform {
 public:
  FjltTransform(uint64_t input_dim, uint64_t output_dim, uint64_t seed);

  std::vector<double> Apply(const std::vector<double>& x) const override;
  uint64_t input_dimension() const override { return input_dim_; }
  uint64_t output_dimension() const override { return sampled_rows_.size(); }
  const char* Name() const override { return "fjlt"; }

 private:
  uint64_t input_dim_;
  uint64_t padded_dim_;
  std::vector<int8_t> signs_;           // D
  std::vector<uint64_t> sampled_rows_;  // P
  double scale_;
};

/// In-place Walsh–Hadamard transform; `x->size()` must be a power of two.
/// Unnormalized (apply scale 1/sqrt(n) yourself if needed).
void WalshHadamardInPlace(std::vector<double>* x);

}  // namespace sketch

#endif  // SKETCH_DIMRED_JL_TRANSFORM_H_
