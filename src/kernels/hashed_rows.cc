#include "kernels/hashed_rows.h"

#include "hash/kwise_hash.h"

namespace sketch {

HashedRows::HashedRows(uint64_t width, uint64_t depth, uint64_t seed,
                       const RowHashing& hashing)
    : width_div_(width) {
  SKETCH_CHECK(depth >= 1);
  SKETCH_CHECK_MSG(width <= UINT64_MAX / depth,
                   "hashed rows width * depth overflows");
  bucket_rows_.reserve(depth);
  if (hashing.sign_seed != nullptr) sign_rows_.reserve(depth);
  for (uint64_t j = 0; j < depth; ++j) {
    bucket_rows_.emplace_back(KWiseHash(2, hashing.bucket_seed(seed, j)));
    if (hashing.sign_seed != nullptr) {
      sign_rows_.emplace_back(KWiseHash(hashing.sign_independence,
                                        hashing.sign_seed(seed, j)));
    }
  }
}

uint64_t HashedRows::DynamicMemoryBytes() const {
  uint64_t bytes = bucket_rows_.capacity() * sizeof(BlockHasher) +
                   sign_rows_.capacity() * sizeof(BlockHasher);
  for (const BlockHasher& row : bucket_rows_) bytes += row.DynamicMemoryBytes();
  for (const BlockHasher& row : sign_rows_) bytes += row.DynamicMemoryBytes();
  return bytes;
}

std::vector<double> HashedRows::Apply(std::span<const double> x,
                                      double scale) const {
  struct Entry {
    uint64_t index;
    double value;
  };
  std::vector<Entry> nonzero;
  for (uint64_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0) nonzero.push_back({i, x[i]});
  }
  return ApplySparse(nonzero, scale);
}

}  // namespace sketch
