// Fuzz harness: CountMinSketch::TryDeserialize round-trip.
//
// Accepts arbitrary bytes; a well-formed buffer must round-trip bit-exactly
// through TryDeserialize → Serialize, survive a point query and a
// self-merge (which doubles every counter, exercising the linear-merge path
// under the sanitizers); a malformed buffer must come back as std::nullopt
// with a reason, with no memory access past the buffer. A SKETCH_CHECK
// firing inside TryDeserialize throws out of the harness uncaught: decoding
// must never reach one.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "fuzz/fuzz_util.h"
#include "sketch/count_min.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> bytes(data, size);
  std::string error;
  std::optional<sketch::CountMinSketch> sk =
      sketch::CountMinSketch::TryDeserialize(bytes, &error);
  if (!sk) {
    // Malformed buffer rejected — the expected path for most inputs.
    sketch::fuzz::RequireReason(error);
    return 0;
  }
  sketch::fuzz::RequireIdentical(bytes, sk->Serialize());
  (void)sk->Estimate(0);
  sk->Merge(sketch::CountMinSketch::TryDeserialize(bytes, nullptr).value());
  return 0;
}
