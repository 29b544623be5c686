#ifndef SKETCH_SKETCH_WIDTH_MODE_H_
#define SKETCH_SKETCH_WIDTH_MODE_H_

#include <bit>
#include <cstdint>

#include "common/check.h"

/// \file
/// Bucket-geometry policy for the hashed-counter sketches.
///
/// Every sketch row maps a 61-bit hash onto [0, width). The width alone
/// picks how: `BlockHasher::BucketBlock` masks with width - 1 inside the
/// SIMD hash lanes when the width is a power of two, and reduces with
/// `FastDiv64::Mod` otherwise — in either mode. The mode decides only the
/// width itself and the blob header. The default (`kDivision`) honors the
/// requested width exactly and writes the v1 header; the opt-in `kPow2`
/// rounds the width up to the next power of two at construction — the
/// layout both exemplar Count-Min codebases use, and a way to guarantee
/// the masked lanes for any request — and writes the v2 header.
///
/// Accuracy caveat: rounding the width changes the error bound. A sketch
/// asked for width w in kPow2 mode actually has bit_ceil(w) >= w buckets,
/// so its epsilon is e / bit_ceil(w) — never worse than requested, but any
/// bound *reported* for the sketch (e.g. by the server) must be computed
/// from the rounded width the sketch really has, not the requested one.
///
/// The two modes agree bit-for-bit at equal width: for a power-of-two w,
/// `FastDiv64::Mod(h)` and `h & (w - 1)` are the same function, so the
/// counters, snapshots' counter payloads and answers of a division-mode
/// and a pow2-mode sketch of width w match; only the header differs.

namespace sketch {

/// How a sketch sizes its rows: the requested width, or its bit_ceil.
enum class WidthMode : uint64_t {
  kDivision = 0,  ///< exact requested width, v1 header (default)
  kPow2 = 1,      ///< width rounded up to a power of two, v2 header
};

inline const char* WidthModeName(WidthMode mode) {
  return mode == WidthMode::kPow2 ? "pow2" : "division";
}

/// The width a sketch constructed with (`mode`, requested `width`) really
/// gets. Identity for kDivision; bit_ceil for kPow2. The requested width
/// must leave bit_ceil defined (<= 2^63); sketch constructors check their
/// own table-size limits on the *rounded* result.
inline uint64_t ApplyWidthMode(WidthMode mode, uint64_t width) {
  if (mode == WidthMode::kDivision) return width;
  SKETCH_CHECK_MSG(width >= 1 && width <= (1ULL << 63),
                   "pow2 width mode: requested width not representable");
  return std::bit_ceil(width);
}

}  // namespace sketch

#endif  // SKETCH_SKETCH_WIDTH_MODE_H_
