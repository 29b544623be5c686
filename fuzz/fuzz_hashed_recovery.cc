// Fuzz harness: input validation of the hashed CS decoders.
//
// The CS decoders consume measurement vectors that may come from outside
// the process, so the contract under test is: a measurement vector of the
// wrong length is rejected by a SKETCH_CHECK, and a right-length vector —
// with ANY bit patterns, including NaN and infinity — decodes without
// undefined behavior and returns an estimate that respects the dimension
// (and, for HashedRecovery's top-k, the sparsity bound).
//
// Input layout (little-endian, zero-padded past the end):
//   byte 0      bit 0: variant (0 = kCountSketch, 1 = kCountMin);
//               bit 1: decoder (0 = HashedRecovery::RecoverTopK,
//                               1 = BitTestRecovery::Recover)
//   byte 1      width   (clamped to [1, 32])
//   byte 2      depth   (clamped to [1, 8])
//   byte 3      dimension (clamped to [1, 64]; BitTestRecovery adds 1)
//   byte 4      k (HashedRecovery) or max_rounds % 17 (BitTestRecovery)
//   bytes 5..12 seed
//   rest        doubles for the measurement vector y (count taken from the
//               input, so y.size() usually mismatches NumMeasurements())

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "cs/bit_test_recovery.h"
#include "cs/hashed_recovery.h"
#include "fuzz/fuzz_util.h"

namespace {

void CheckHashedRecovery(const sketch::HashedRecovery& recovery,
                         const std::vector<double>& y, uint64_t k) {
  const sketch::SparseVector recovered = recovery.RecoverTopK(y, k);
  // Only a correctly sized y may reach here, and the result must respect
  // the decoder's own bounds; anything else is a harness trap.
  if (y.size() != recovery.NumMeasurements()) __builtin_trap();
  if (recovered.entries().size() > k) __builtin_trap();
  for (const sketch::SparseEntry& e : recovered.entries()) {
    if (e.index >= recovery.dimension()) __builtin_trap();
  }
  (void)recovery.EstimateCoordinate(y, 0);
}

void CheckBitTestRecovery(const sketch::BitTestRecovery& recovery,
                          const std::vector<double>& y, int max_rounds) {
  const sketch::BitTestRecovery::Result result =
      recovery.Recover(y, max_rounds);
  if (y.size() != recovery.NumMeasurements()) __builtin_trap();
  if (result.estimate.dimension() != recovery.dimension()) __builtin_trap();
  for (const sketch::SparseEntry& e : result.estimate.entries()) {
    if (e.index >= recovery.dimension()) __builtin_trap();
  }
  if (result.rounds_used > max_rounds) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  sketch::fuzz::InputReader input(data, size);
  const uint8_t mode = input.NextU8();
  const auto variant = mode % 2 == 0
                           ? sketch::HashedRecovery::Variant::kCountSketch
                           : sketch::HashedRecovery::Variant::kCountMin;
  const bool bit_test = (mode & 2) != 0;
  const uint64_t width = 1 + input.NextU8() % 32;
  const uint64_t depth = 1 + input.NextU8() % 8;
  const uint64_t dimension = 1 + input.NextU8() % 64;
  const uint64_t k = input.NextU8();
  const uint64_t seed = input.NextU64();

  std::vector<double> y;
  y.reserve(input.Remaining() / 8);
  while (input.Remaining() >= 8) y.push_back(input.NextDouble());

  try {
    if (bit_test) {
      CheckBitTestRecovery(
          sketch::BitTestRecovery(width, depth, dimension + 1, seed), y,
          static_cast<int>(k % 17));
    } else {
      CheckHashedRecovery(
          sketch::HashedRecovery(variant, width, depth, dimension, seed), y,
          k);
    }
  } catch (const sketch::CheckFailure&) {
    // Wrong-length measurement vector rejected — expected for most inputs.
  }
  return 0;
}
