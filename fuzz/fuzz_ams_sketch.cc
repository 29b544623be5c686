// Fuzz harness: AmsSketch::TryDeserialize round-trip (see fuzz_count_min.cc
// for the harness contract).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "fuzz/fuzz_util.h"
#include "sketch/ams_sketch.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> bytes(data, size);
  std::string error;
  std::optional<sketch::AmsSketch> sk =
      sketch::AmsSketch::TryDeserialize(bytes, &error);
  if (!sk) {
    // Malformed buffer rejected — the expected path for most inputs.
    sketch::fuzz::RequireReason(error);
    return 0;
  }
  sketch::fuzz::RequireIdentical(bytes, sk->Serialize());
  (void)sk->EstimateF2();
  sk->Merge(sketch::AmsSketch::TryDeserialize(bytes, nullptr).value());
  return 0;
}
