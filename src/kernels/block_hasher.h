#ifndef SKETCH_KERNELS_BLOCK_HASHER_H_
#define SKETCH_KERNELS_BLOCK_HASHER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hash/kwise_hash.h"
#include "kernels/fast_div.h"
#include "telemetry/telemetry.h"

/// \file
/// Batched evaluation of the k-wise polynomial hash (`KWiseHash`).
///
/// `KWiseHash::Hash` is correct but pays per-call overhead that dominates
/// the sketch update path: every evaluation re-walks a heap-allocated
/// coefficient vector through a size-dependent loop, and every bucket
/// reduction issues a hardware divide. `BlockHasher` evaluates the *same*
/// polynomial — bit-identically, including the Mersenne fold order — over a
/// block of keys at once, with the coefficients hoisted into locals (k=2 and
/// k=4 get fully unrolled Horner chains) and the bucket reduction replaced
/// by a mask (power-of-two widths) or `FastDiv64` (every other width).
/// Every sketch's `ApplyBatch` routes through this layer; the scalar
/// `Update`/`Hash` path remains the reference the property tests compare
/// against.

namespace sketch {

namespace kernels_internal {

/// Degree-1 Horner chain (k=2): Mul(c1, x) + c0, Mersenne-folded in the
/// same order as the scalar `KWiseHash::Hash` loop.
inline uint64_t HashK2(uint64_t c0, uint64_t c1, uint64_t key) {
  const uint64_t xr = ReduceModMersenne61(key);
  uint64_t acc = MulModMersenne61(c1, xr) + c0;
  if (acc >= kMersennePrime61) acc -= kMersennePrime61;
  return acc;
}

/// Degree-3 Horner chain (k=4), fully unrolled.
inline uint64_t HashK4(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                       uint64_t key) {
  const uint64_t xr = ReduceModMersenne61(key);
  uint64_t acc = MulModMersenne61(c3, xr) + c2;
  if (acc >= kMersennePrime61) acc -= kMersennePrime61;
  acc = MulModMersenne61(acc, xr) + c1;
  if (acc >= kMersennePrime61) acc -= kMersennePrime61;
  acc = MulModMersenne61(acc, xr) + c0;
  if (acc >= kMersennePrime61) acc -= kMersennePrime61;
  return acc;
}

/// Runs the k=2 chain over a block with a 4-way unroll: the four Horner
/// chains are independent, so the out-of-order core overlaps their 128-bit
/// multiplies instead of serializing on one chain's latency. `emit(i, h)`
/// receives the raw hash of keys[i]; callers fuse the bucket reduction,
/// sign extraction, or bit store into it so the block is traversed once.
template <typename Emit>
void EvalK2Block(uint64_t c0, uint64_t c1, const uint64_t* keys,
                 std::size_t n, Emit&& emit) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t h0 = HashK2(c0, c1, keys[i]);
    const uint64_t h1 = HashK2(c0, c1, keys[i + 1]);
    const uint64_t h2 = HashK2(c0, c1, keys[i + 2]);
    const uint64_t h3 = HashK2(c0, c1, keys[i + 3]);
    emit(i, h0);
    emit(i + 1, h1);
    emit(i + 2, h2);
    emit(i + 3, h3);
  }
  for (; i < n; ++i) emit(i, HashK2(c0, c1, keys[i]));
}

template <typename Emit>
void EvalK4Block(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                 const uint64_t* keys, std::size_t n, Emit&& emit) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t h0 = HashK4(c0, c1, c2, c3, keys[i]);
    const uint64_t h1 = HashK4(c0, c1, c2, c3, keys[i + 1]);
    const uint64_t h2 = HashK4(c0, c1, c2, c3, keys[i + 2]);
    const uint64_t h3 = HashK4(c0, c1, c2, c3, keys[i + 3]);
    emit(i, h0);
    emit(i + 1, h1);
    emit(i + 2, h2);
    emit(i + 3, h3);
  }
  for (; i < n; ++i) emit(i, HashK4(c0, c1, c2, c3, keys[i]));
}

}  // namespace kernels_internal

/// Register-resident evaluator for one `KWiseHash` function. Copyable and
/// cheap to construct; sketches build one per row at construction time.
class BlockHasher {
 public:
  /// Snapshots the coefficients of `hash`. The evaluator computes exactly
  /// `hash.Hash(x)` / `hash.Bucket(x, w)` / `hash.Sign(x)` for all inputs.
  explicit BlockHasher(const KWiseHash& hash);

  int independence() const { return k_; }

  /// Single-key evaluation, bit-identical to `KWiseHash::Hash`. Inline with
  /// the k=1/2/4 coefficients in member scalars so the per-item sketch
  /// update path also skips the vector walk.
  uint64_t HashOne(uint64_t key) const {
    if (k_ == 2) return kernels_internal::HashK2(c_[0], c_[1], key);
    if (k_ == 4) {
      return kernels_internal::HashK4(c_[0], c_[1], c_[2], c_[3], key);
    }
    if (k_ == 1) return c_[0];
    return HashGeneric(key);
  }

  /// Bucket of a single key: exactly `KWiseHash::Bucket(key, w.divisor())`.
  uint64_t BucketOne(uint64_t key, const FastDiv64& w) const {
    return w.Mod(HashOne(key));
  }

  /// Sign of a single key: exactly `KWiseHash::Sign(key)`.
  int64_t SignOne(uint64_t key) const {
    return (HashOne(key) & 1) ? +1 : -1;
  }

  /// Calls emit(i, Hash(keys[i])) for i < n through the specialized
  /// k=1/2/4 block loops. Consumers whose per-key action is one cheap
  /// store (Bloom's bit set) fuse it here instead of materializing an
  /// intermediate bucket array.
  template <typename Emit>
  void ForEachHash(const uint64_t* keys, std::size_t n, Emit&& emit) const {
    // One registry add per block (n is typically 256), not per key: the
    // telemetry cost stays O(1/block) on the hottest loop in the library.
    SKETCH_COUNTER_ADD("kernels.block_hasher.keys_hashed", n);
    if (k_ == 2) {
      kernels_internal::EvalK2Block(c_[0], c_[1], keys, n, emit);
    } else if (k_ == 4) {
      kernels_internal::EvalK4Block(c_[0], c_[1], c_[2], c_[3], keys, n,
                                    emit);
    } else if (k_ == 1) {
      for (std::size_t i = 0; i < n; ++i) emit(i, c_[0]);
    } else {
      for (std::size_t i = 0; i < n; ++i) emit(i, HashGeneric(keys[i]));
    }
  }

  /// out[i] = Hash(keys[i]) for i < n.
  void HashBlock(const uint64_t* keys, std::size_t n, uint64_t* out) const;

  /// out[i] = Hash(keys[i]) % w.divisor() for i < n. The width picks the
  /// reduction: at a power-of-two width `%` is the mask `w.divisor() - 1`,
  /// which fuses into the hash lanes; any other width stages the hashes
  /// through `FastDiv64::Mod`. Both give the same buckets, so callers
  /// never branch on how their width was chosen.
  void BucketBlock(const uint64_t* keys, std::size_t n, const FastDiv64& w,
                   uint64_t* out) const;

  /// out[i] = ±1 sign of keys[i] for i < n.
  void SignBlock(const uint64_t* keys, std::size_t n, int64_t* out) const;

  /// Heap bytes owned by this evaluator (the generic-path coefficient
  /// vector). The object itself is counted by its owning container; the
  /// sketches sum this into MemoryFootprintBytes().
  uint64_t DynamicMemoryBytes() const {
    return coeffs_.capacity() * sizeof(uint64_t);
  }

 private:
  uint64_t HashGeneric(uint64_t key) const;

  int k_;
  uint64_t c_[4];                 // coefficients for the k<=4 fast paths
  std::vector<uint64_t> coeffs_;  // all k coefficients (generic path)
};

}  // namespace sketch

#endif  // SKETCH_KERNELS_BLOCK_HASHER_H_
