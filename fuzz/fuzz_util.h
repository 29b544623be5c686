#ifndef SKETCH_FUZZ_FUZZ_UTIL_H_
#define SKETCH_FUZZ_FUZZ_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

/// \file
/// Shared helpers for the libFuzzer harnesses under fuzz/.
///
/// Fuzz builds compile the whole library with SKETCH_FUZZING_ABORT_THROWS
/// (see common/check.h): a failed SKETCH_CHECK throws sketch::CheckFailure
/// instead of aborting. Harnesses catch it only where a check is the
/// contract under test (a CS decoder given a wrong-length measurement
/// vector). The sketch deserializers reject malformed buffers by returning
/// std::nullopt, so their harnesses catch nothing. Anything that kills the
/// process — a sanitizer report, an uncaught exception, a __builtin_trap
/// from a violated invariant — is a real finding.

namespace sketch::fuzz {

/// Structured little-endian reader for harnesses that decode a geometry
/// prefix from the fuzz input. Returns zeros past the end (harnesses clamp
/// all geometry anyway).
class InputReader {
 public:
  InputReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t NextU8() {
    if (position_ >= size_) return 0;
    return data_[position_++];
  }

  uint64_t NextU64() {
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(NextU8()) << (8 * i);
    }
    return value;
  }

  /// Reinterprets the next 8 bytes as a double (any bit pattern, including
  /// NaN/inf — decoders must tolerate them without undefined behavior).
  double NextDouble() {
    const uint64_t bits = NextU64();
    double value;
    std::memcpy(&value, &bits, sizeof value);
    return value;
  }

  size_t Remaining() const {
    return position_ < size_ ? size_ - position_ : 0;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t position_ = 0;
};

/// Round-trip invariant shared by the TryDeserialize harnesses: if a
/// buffer is accepted, re-serializing the result must reproduce it bit for
/// bit. Trap (not SKETCH_CHECK) so the failure is visible even though
/// checks throw in fuzz builds.
inline void RequireIdentical(std::span<const uint8_t> accepted,
                             const std::vector<uint8_t>& reserialized) {
  if (!std::equal(accepted.begin(), accepted.end(), reserialized.begin(),
                  reserialized.end())) {
    __builtin_trap();
  }
}

/// A rejected buffer must come back with the reason it was rejected.
inline void RequireReason(const std::string& error) {
  if (error.empty()) __builtin_trap();
}

}  // namespace sketch::fuzz

#endif  // SKETCH_FUZZ_FUZZ_UTIL_H_
