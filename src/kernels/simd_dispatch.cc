#include "kernels/simd_dispatch.h"

#include <algorithm>
#include <cstdlib>

namespace sketch::simd {

bool Avx2Supported() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

SimdTier ActiveSimdTier() {
  // Latched on first call; the C++ magic-static guarantees exactly one
  // probe even under concurrent first use, so every thread sees the same
  // tier for the life of the process.
  static const SimdTier tier = [] {
    // Single read at latch time, before the result is shared; the
    // process does not call setenv. NOLINT(concurrency-mt-unsafe)
    const char* force = std::getenv("SKETCH_FORCE_SCALAR");  // NOLINT(concurrency-mt-unsafe)
    if (force != nullptr && force[0] != '\0' && force[0] != '0') {
      return SimdTier::kScalar;
    }
    if (Avx2KernelsCompiled() && Avx2Supported()) return SimdTier::kAvx2;
    return SimdTier::kScalar;
  }();
  return tier;
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kScalar:
      break;
  }
  return "scalar";
}

namespace {

// At a width that is not a power of two the bucket reduction stays scalar
// even on the AVX2 tier: FastDiv64's exactness argument needs the full
// 128-bit high product, which AVX2 cannot form in-register without a
// partial-product cascade that costs more than it saves. The hash — the dominant cost — is still
// vectorized; the Mod runs over a cache-resident scratch block. This TU
// is compiled without -mavx2, so the FastDiv64 inline code stays portable.
constexpr std::size_t kModChunk = 256;

}  // namespace

void BucketBlockK2Avx2(uint64_t c0, uint64_t c1, const uint64_t* keys,
                       std::size_t n, const FastDiv64& width, uint64_t* out) {
  uint64_t scratch[kModChunk];
  for (std::size_t base = 0; base < n; base += kModChunk) {
    const std::size_t m = std::min(kModChunk, n - base);
    HashBlockK2Avx2(c0, c1, keys + base, m, scratch);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = width.Mod(scratch[i]);
  }
}

void BucketBlockK4Avx2(uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3,
                       const uint64_t* keys, std::size_t n,
                       const FastDiv64& width, uint64_t* out) {
  uint64_t scratch[kModChunk];
  for (std::size_t base = 0; base < n; base += kModChunk) {
    const std::size_t m = std::min(kModChunk, n - base);
    HashBlockK4Avx2(c0, c1, c2, c3, keys + base, m, scratch);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = width.Mod(scratch[i]);
  }
}

}  // namespace sketch::simd
