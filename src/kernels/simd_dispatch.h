#ifndef SKETCH_KERNELS_SIMD_DISPATCH_H_
#define SKETCH_KERNELS_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "kernels/fast_div.h"

/// \file
/// Runtime SIMD tier selection for the batched hashing kernels.
///
/// The k-wise Horner evaluation in `BlockHasher` is the hottest loop in the
/// library — every ApplyBatch on every sketch routes through it — and its
/// 64x64-bit modular multiplies vectorize cleanly over AVX2's 4x64-bit
/// lanes. This header is the seam between the portable scalar kernels and
/// the ISA-specific ones: it exposes a one-time-probed tier
/// (`ActiveSimdTier`) and the AVX2 block-kernel entry points, but contains
/// no intrinsics itself, so every other translation unit in the repo stays
/// ISA-agnostic and compiles without special flags.
///
/// Dispatch rules:
///   - `block_hasher_avx2.cc` is the only TU compiled with `-mavx2`
///     (enforced by lint rule SL011); its functions are only *called* after
///     `ActiveSimdTier()` reports kAvx2, so the binary runs unmodified on
///     CPUs without AVX2 — the probe simply selects the scalar tier.
///   - The probe result is latched on first use (thread-safe magic static)
///     and never changes for the life of the process, so mixed-tier output
///     within one sketch is impossible.
///   - `SKETCH_FORCE_SCALAR=1` in the environment pins the scalar tier
///     regardless of CPU support. The scalar block loops are the
///     bit-exactness oracle; CI re-runs the test suite under this override
///     and the two runs must produce byte-identical Serialize() output.

namespace sketch::simd {

/// Kernel tiers, ordered by preference. One is chosen per process.
enum class SimdTier : uint8_t {
  kScalar = 0,  ///< portable block loops in block_hasher.h (the oracle)
  kAvx2 = 1,    ///< 4x64-bit lane kernels in block_hasher_avx2.cc
};

/// The tier every BlockHasher block call dispatches to. Probed once:
/// kAvx2 iff the AVX2 TU was compiled with AVX2 support, the CPU reports
/// the feature, and SKETCH_FORCE_SCALAR is not set in the environment.
SimdTier ActiveSimdTier();

/// "avx2" / "scalar" — exported into benchmark host metadata so snapshots
/// recorded on hosts with different ISAs are visibly incomparable.
const char* SimdTierName(SimdTier tier);

/// True iff block_hasher_avx2.cc was built with AVX2 code generation
/// (x86-64 toolchain); false on other targets, where its entry points
/// forward to the scalar kernels.
bool Avx2KernelsCompiled();

/// Runtime CPU probe (cpuid-backed via __builtin_cpu_supports). Cheap but
/// not free; ActiveSimdTier() caches the combined verdict.
bool Avx2Supported();

// --- AVX2 block-kernel entry points ---------------------------------------
//
// Each evaluates the same polynomial as the scalar kernels in
// block_hasher.h — bit-identically, producing the canonical mod-(2^61-1)
// residue — over blocks of keys, 4 lanes at a time, with the remainder tail
// handled by the scalar helpers. `K2` is the degree-1 chain (pairwise
// independence: buckets and signs), `K4` the degree-3 chain (AMS).
// `BlockHasher::BucketBlock` picks the bucket variant by width, not by
// `WidthMode`: any power-of-two width — in division mode as much as in
// kPow2 mode, which only rounds the width up and writes the v2 header —
// takes the `Pow2` variants, which fuse the mask width - 1 into the lanes.
// Every other width takes the plain variants, which apply
// `FastDiv64::Mod` per element after the vectorized hash, since an exact
// 64-bit magic-multiply reduction needs the full 128-bit high product that
// AVX2 cannot form in-register cheaply.
//
// Safe to call only when Avx2Supported() (they execute AVX2 instructions
// when Avx2KernelsCompiled()); BlockHasher guards every call site through
// ActiveSimdTier().

void HashBlockK2Avx2(uint64_t c0, uint64_t c1, const uint64_t* keys,
                     std::size_t n, uint64_t* out);
void HashBlockK4Avx2(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                     const uint64_t* keys, std::size_t n, uint64_t* out);

void BucketBlockK2Avx2(uint64_t c0, uint64_t c1, const uint64_t* keys,
                       std::size_t n, const FastDiv64& width, uint64_t* out);
void BucketBlockK4Avx2(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                       const uint64_t* keys, std::size_t n,
                       const FastDiv64& width, uint64_t* out);

void BucketBlockPow2K2Avx2(uint64_t c0, uint64_t c1, const uint64_t* keys,
                           std::size_t n, uint64_t mask, uint64_t* out);
void BucketBlockPow2K4Avx2(uint64_t c0, uint64_t c1, uint64_t c2,
                           uint64_t c3, const uint64_t* keys, std::size_t n,
                           uint64_t mask, uint64_t* out);

void SignBlockK2Avx2(uint64_t c0, uint64_t c1, const uint64_t* keys,
                     std::size_t n, int64_t* out);
void SignBlockK4Avx2(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                     const uint64_t* keys, std::size_t n, int64_t* out);

}  // namespace sketch::simd

#endif  // SKETCH_KERNELS_SIMD_DISPATCH_H_
