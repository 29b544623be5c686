#ifndef SKETCH_DIMRED_FEATURE_HASHING_H_
#define SKETCH_DIMRED_FEATURE_HASHING_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "kernels/hashed_rows.h"

namespace sketch {

/// The "hashing trick" for machine-learning features [WDL+09, SPD+09]:
/// named (string) features are hashed directly into a fixed-size weight
/// vector with a ±1 sign, i.e., a Count-Sketch transform applied to an
/// implicit, unbounded feature space. No dictionary is ever materialized —
/// the survey's §3 point that the hashing process is itself an
/// inner-product-preserving dimensionality reduction.
class FeatureHasher {
 public:
  /// \param output_dim  size of the hashed feature vector.
  FeatureHasher(uint64_t output_dim, uint64_t seed);

  /// Accumulates one named feature with the given value into `out`
  /// (`out->size()` must equal output_dim).
  void AddFeature(std::string_view name, double value,
                  std::vector<double>* out) const;

  /// Hashes a whole (name, value) list into a fresh vector.
  std::vector<double> HashFeatures(
      const std::vector<std::pair<std::string_view, double>>& features) const;

  /// Stable 64-bit id of a feature name (FNV-1a); exposed so callers can
  /// pre-tokenize.
  static uint64_t FeatureId(std::string_view name);

  uint64_t output_dim() const { return rows_.width(); }

 private:
  HashedRows rows_;  // one row of output_dim buckets
};

}  // namespace sketch

#endif  // SKETCH_DIMRED_FEATURE_HASHING_H_
