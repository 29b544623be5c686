#include "kernels/block_hasher.h"

#include "common/check.h"
#include "kernels/simd_dispatch.h"

namespace sketch {

namespace {

// The AVX2 tier covers exactly the k=2 and k=4 unrolled chains — the only
// shapes the sketches construct. k=1 (constant) and the generic degree are
// always scalar; they never appear on an ApplyBatch hot path.
inline bool UseAvx2(int k) {
  return (k == 2 || k == 4) &&
         simd::ActiveSimdTier() == simd::SimdTier::kAvx2;
}

}  // namespace

BlockHasher::BlockHasher(const KWiseHash& hash)
    : k_(hash.independence()), c_{0, 0, 0, 0}, coeffs_(hash.coefficients()) {
  SKETCH_CHECK(k_ >= 1);
  for (int i = 0; i < k_ && i < 4; ++i) {
    c_[i] = coeffs_[static_cast<std::size_t>(i)];
  }
}

uint64_t BlockHasher::HashGeneric(uint64_t key) const {
  const uint64_t xr = ReduceModMersenne61(key);
  uint64_t acc = coeffs_.back();
  for (std::size_t i = coeffs_.size() - 1; i-- > 0;) {
    acc = MulModMersenne61(acc, xr) + coeffs_[i];
    if (acc >= kMersennePrime61) acc -= kMersennePrime61;
  }
  return acc;
}

// Each block method dispatches once per block, not per key; the SIMD
// branches replicate the per-block telemetry add that ForEachHash performs
// for the scalar branch, so counter totals are tier-independent.

void BlockHasher::HashBlock(const uint64_t* keys, std::size_t n,
                            uint64_t* out) const {
  if (UseAvx2(k_)) {
    SKETCH_COUNTER_ADD("kernels.block_hasher.keys_hashed", n);
    if (k_ == 2) {
      simd::HashBlockK2Avx2(c_[0], c_[1], keys, n, out);
    } else {
      simd::HashBlockK4Avx2(c_[0], c_[1], c_[2], c_[3], keys, n, out);
    }
    return;
  }
  ForEachHash(keys, n, [out](std::size_t i, uint64_t h) { out[i] = h; });
}

void BlockHasher::BucketBlock(const uint64_t* keys, std::size_t n,
                              const FastDiv64& w, uint64_t* out) const {
  if (w.is_pow2()) {
    const uint64_t mask = w.divisor() - 1;
    if (UseAvx2(k_)) {
      SKETCH_COUNTER_ADD("kernels.block_hasher.keys_hashed", n);
      if (k_ == 2) {
        simd::BucketBlockPow2K2Avx2(c_[0], c_[1], keys, n, mask, out);
      } else {
        simd::BucketBlockPow2K4Avx2(c_[0], c_[1], c_[2], c_[3], keys, n,
                                    mask, out);
      }
      return;
    }
    ForEachHash(keys, n,
                [out, mask](std::size_t i, uint64_t h) { out[i] = h & mask; });
    return;
  }
  if (UseAvx2(k_)) {
    SKETCH_COUNTER_ADD("kernels.block_hasher.keys_hashed", n);
    if (k_ == 2) {
      simd::BucketBlockK2Avx2(c_[0], c_[1], keys, n, w, out);
    } else {
      simd::BucketBlockK4Avx2(c_[0], c_[1], c_[2], c_[3], keys, n, w, out);
    }
    return;
  }
  ForEachHash(keys, n,
              [out, &w](std::size_t i, uint64_t h) { out[i] = w.Mod(h); });
}

void BlockHasher::SignBlock(const uint64_t* keys, std::size_t n,
                            int64_t* out) const {
  if (UseAvx2(k_)) {
    SKETCH_COUNTER_ADD("kernels.block_hasher.keys_hashed", n);
    if (k_ == 2) {
      simd::SignBlockK2Avx2(c_[0], c_[1], keys, n, out);
    } else {
      simd::SignBlockK4Avx2(c_[0], c_[1], c_[2], c_[3], keys, n, out);
    }
    return;
  }
  ForEachHash(keys, n, [out](std::size_t i, uint64_t h) {
    out[i] = (h & 1) ? +1 : -1;
  });
}

}  // namespace sketch
