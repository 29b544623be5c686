#ifndef SKETCH_COMMON_WRAPPING_H_
#define SKETCH_COMMON_WRAPPING_H_

#include <cstdint>

/// \file
/// Two's-complement (mod 2^64) arithmetic on int64_t counters, and their
/// exact magnitudes. Signed overflow is undefined behaviour, and counter
/// values can come from a client (a restored snapshot, an ingested delta),
/// so every counter add, signed multiply and absolute value goes through
/// these. The arithmetic runs on uint64_t, where wrap-around is defined,
/// and converts back, which C++20 defines as modular. Values that do not
/// overflow get exactly the result of plain `+` and `*`, and on
/// two's-complement hardware the generated code is the same.

namespace sketch {

/// a + b, wrapping mod 2^64.
constexpr int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// a * b, wrapping mod 2^64.
constexpr int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// |v| as an unsigned magnitude, exact for every int64_t (INT64_MIN too,
/// where std::abs is undefined).
constexpr uint64_t Magnitude(int64_t v) {
  return v < 0 ? 0 - static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
}

}  // namespace sketch

#endif  // SKETCH_COMMON_WRAPPING_H_
