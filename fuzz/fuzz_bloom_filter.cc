// Fuzz harness: BloomFilter::TryDeserialize round-trip (see fuzz_count_min.cc
// for the harness contract).
//
// One subtlety: a Bloom buffer's trailing bit-array word may carry bits
// above num_bits, which Serialize would faithfully reproduce, so the
// round-trip identity holds for arbitrary accepted word contents.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "fuzz/fuzz_util.h"
#include "sketch/bloom_filter.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> bytes(data, size);
  std::string error;
  std::optional<sketch::BloomFilter> filter =
      sketch::BloomFilter::TryDeserialize(bytes, &error);
  if (!filter) {
    // Malformed buffer rejected — the expected path for most inputs.
    sketch::fuzz::RequireReason(error);
    return 0;
  }
  sketch::fuzz::RequireIdentical(bytes, filter->Serialize());
  (void)filter->MayContain(0);
  (void)filter->FillRatio();
  filter->Merge(sketch::BloomFilter::TryDeserialize(bytes, nullptr).value());
  return 0;
}
