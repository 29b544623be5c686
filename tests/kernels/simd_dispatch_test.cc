// SIMD dispatch tier tests: whatever tier `ActiveSimdTier()` picked, the
// BlockHasher batch entry points must be bit-identical to the scalar
// `KWiseHash` reference, for every lane-remainder length (the AVX2 kernels
// process 4 keys per vector, so n mod 4 exercises the padded tail), for
// every independence class (k=1 constant, k=2/k=4 vectorized, k=5 generic
// scalar), and for keys straddling the Mersenne-61 fold boundaries where
// the vector reduction could disagree with the scalar one by a
// non-canonical residue. Running this suite a second time with
// SKETCH_FORCE_SCALAR=1 (the `*_forced_scalar` ctest entries) pins the
// scalar fallback against the same reference, which transitively proves
// the two tiers agree byte for byte.

#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "hash/kwise_hash.h"
#include "kernels/block_hasher.h"
#include "kernels/fast_div.h"
#include "kernels/simd_dispatch.h"
#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "stream/update.h"

namespace sketch {
namespace {

constexpr uint64_t kP61 = kMersennePrime61;

// Lengths around the 4-lane vector width plus the sketches' 256-key block.
const std::size_t kLengths[] = {0, 1, 2,   3,   4,   5,  6,
                                7, 8, 9,   255, 256, 257};

// Keys that stress the fold: 0, small, every neighborhood of p = 2^61-1
// (p-1, p, p+1 — note Hash(p) == Hash(0) because the reduction is mod p),
// 2p, and the top of the 64-bit range where (key >> 61) is maximal.
std::vector<uint64_t> FoldBoundaryKeys() {
  std::vector<uint64_t> keys = {0,       1,         2,        kP61 - 2,
                                kP61 - 1, kP61,     kP61 + 1, kP61 + 2,
                                2 * kP61, 2 * kP61 + 1,       ~0ULL,
                                ~0ULL - 1, 1ULL << 61,        1ULL << 62};
  Xoshiro256StarStar rng(42);
  for (int i = 0; i < 300; ++i) keys.push_back(rng.Next());
  return keys;
}

// Builds a key block of length n by cycling through the boundary set so
// every length still sees fold-boundary values.
std::vector<uint64_t> KeyBlock(std::size_t n, std::size_t offset) {
  const std::vector<uint64_t> pool = FoldBoundaryKeys();
  std::vector<uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = pool[(offset + i) % pool.size()];
  }
  return keys;
}

constexpr uint64_t kSentinel = 0xfeedfacecafebeefULL;

TEST(SimdDispatchTest, TierIsConsistentWithProbeAndOverride) {
  const simd::SimdTier tier = simd::ActiveSimdTier();
  const char* forced = std::getenv("SKETCH_FORCE_SCALAR");
  if (forced != nullptr && forced[0] != '\0' && forced[0] != '0') {
    EXPECT_EQ(tier, simd::SimdTier::kScalar);
  }
  if (tier == simd::SimdTier::kAvx2) {
    EXPECT_TRUE(simd::Avx2KernelsCompiled());
    EXPECT_TRUE(simd::Avx2Supported());
  }
  // The name round-trips for both tiers.
  EXPECT_STREQ(simd::SimdTierName(simd::SimdTier::kScalar), "scalar");
  EXPECT_STREQ(simd::SimdTierName(simd::SimdTier::kAvx2), "avx2");
}

TEST(SimdDispatchTest, HashBlockMatchesKWiseReference) {
  for (int k : {1, 2, 4, 5}) {
    const KWiseHash hash(k, 0x1234u + static_cast<uint64_t>(k));
    const BlockHasher hasher(hash);
    for (std::size_t n : kLengths) {
      const std::vector<uint64_t> keys = KeyBlock(n, n);
      std::vector<uint64_t> out(n + 4, kSentinel);
      hasher.HashBlock(keys.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], hash.Hash(keys[i]))
            << "k=" << k << " n=" << n << " i=" << i << " key=" << keys[i];
      }
      // The kernels must never write past n (the AVX2 tail pads into a
      // stack buffer instead of over-storing).
      for (std::size_t i = n; i < out.size(); ++i) {
        ASSERT_EQ(out[i], kSentinel) << "k=" << k << " n=" << n;
      }
    }
  }
}

TEST(SimdDispatchTest, BucketBlockMatchesKWiseReference) {
  const uint64_t widths[] = {1, 2, 3, 100, 2719, 4096, 65537};
  for (int k : {1, 2, 4, 5}) {
    const KWiseHash hash(k, 0x9876u + static_cast<uint64_t>(k));
    const BlockHasher hasher(hash);
    for (uint64_t w : widths) {
      const FastDiv64 div(w);
      for (std::size_t n : kLengths) {
        const std::vector<uint64_t> keys = KeyBlock(n, w + n);
        std::vector<uint64_t> out(n + 4, kSentinel);
        hasher.BucketBlock(keys.data(), n, div, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], hash.Bucket(keys[i], w))
              << "k=" << k << " w=" << w << " n=" << n << " i=" << i;
        }
        for (std::size_t i = n; i < out.size(); ++i) {
          ASSERT_EQ(out[i], kSentinel);
        }
      }
    }
  }
}

TEST(SimdDispatchTest, BucketBlockPow2MatchesDivision) {
  // BucketBlock takes the masked lanes at every power-of-two width and
  // FastDiv64 at every other width; both must equal the `%` reference.
  // The 2^k ± 1 neighbours pin the switch between the two paths.
  const uint64_t pow2_widths[] = {1, 2, 4, 64, 4096, 1ULL << 20, 1ULL << 40};
  std::vector<uint64_t> widths;
  for (uint64_t w : pow2_widths) {
    if (w > 1) widths.push_back(w - 1);
    widths.push_back(w);
    widths.push_back(w + 1);
  }
  for (int k : {1, 2, 4, 5}) {
    const KWiseHash hash(k, 0x5555u + static_cast<uint64_t>(k));
    const BlockHasher hasher(hash);
    for (uint64_t w : widths) {
      const FastDiv64 div(w);
      for (std::size_t n : kLengths) {
        const std::vector<uint64_t> keys = KeyBlock(n, w % 97 + n);
        std::vector<uint64_t> out(n + 4, kSentinel);
        hasher.BucketBlock(keys.data(), n, div, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], hash.Bucket(keys[i], w))
              << "k=" << k << " w=" << w << " n=" << n << " i=" << i;
        }
        for (std::size_t i = n; i < out.size(); ++i) {
          ASSERT_EQ(out[i], kSentinel) << "k=" << k << " w=" << w;
        }
      }
    }
  }
}

TEST(SimdDispatchTest, SignBlockMatchesKWiseReference) {
  for (int k : {1, 2, 4, 5}) {
    const KWiseHash hash(k, 0xabcdu + static_cast<uint64_t>(k));
    const BlockHasher hasher(hash);
    for (std::size_t n : kLengths) {
      const std::vector<uint64_t> keys = KeyBlock(n, 3 * n + 1);
      std::vector<int64_t> out(n + 4, -7);
      hasher.SignBlock(keys.data(), n, out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], hash.Sign(keys[i]))
            << "k=" << k << " n=" << n << " i=" << i << " key=" << keys[i];
      }
      for (std::size_t i = n; i < out.size(); ++i) {
        ASSERT_EQ(out[i], -7);
      }
    }
  }
}

// End-to-end tier invariance: a sketch filled through the dispatched batch
// path serializes to the same bytes as one filled through the per-item
// scalar path. Under the forced-scalar re-run this pins the fallback; on
// an AVX2 host it pins the vector tier — so the committed expectation is
// identical across tiers.
TEST(SimdDispatchTest, ApplyBatchSerializesIdenticallyToUpdate) {
  std::vector<StreamUpdate> stream;
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 4096; ++i) {
    stream.push_back({rng.Next(), static_cast<int64_t>(rng.NextBounded(9)) - 4});
  }
  for (const uint64_t p : FoldBoundaryKeys()) stream.push_back({p, 1});
  for (WidthMode mode : {WidthMode::kDivision, WidthMode::kPow2}) {
    CountMinSketch cm_item(1000, 4, 11, mode);
    CountMinSketch cm_batch(1000, 4, 11, mode);
    for (const StreamUpdate& u : stream) cm_item.Update(u);
    cm_batch.ApplyBatch(stream);
    EXPECT_EQ(cm_item.Serialize(), cm_batch.Serialize());

    CountSketch cs_item(1000, 4, 13, mode);
    CountSketch cs_batch(1000, 4, 13, mode);
    for (const StreamUpdate& u : stream) cs_item.Update(u);
    cs_batch.ApplyBatch(stream);
    EXPECT_EQ(cs_item.Serialize(), cs_batch.Serialize());
  }
}

}  // namespace
}  // namespace sketch
