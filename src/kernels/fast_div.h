#ifndef SKETCH_KERNELS_FAST_DIV_H_
#define SKETCH_KERNELS_FAST_DIV_H_

#include <bit>
#include <cstdint>

#include "common/check.h"

/// \file
/// Division-free bucket reduction for a fixed divisor (libdivide-style).
///
/// Every sketch row maps a 61-bit hash onto [0, width) with `hash % width`.
/// The hardware 64-bit divide that `%` compiles to costs 20-40 cycles and
/// does not pipeline, which makes it the single most expensive instruction
/// on the update hot path (the survey's update cost is supposed to be "a few
/// multiplies and adds per row"). Since `width` is fixed for the lifetime of
/// a sketch, the divide can be replaced by a precomputed multiply-shift that
/// reproduces `x % width` *exactly* for every 64-bit x.

namespace sketch {

/// Exact remainder (and quotient) by a fixed 64-bit divisor using one
/// precomputed magic multiplier, with no divide instruction on the hot path.
///
/// Correctness: let d >= 1 and m = floor((2^64 - 1) / d), so m = (2^64 - r)/d
/// for some r in [1, d]. For any x < 2^64,
///
///     x*m / 2^64 = x/d - x*r / (d * 2^64),  and  0 <= x*r/(d*2^64) < 1,
///
/// because x < 2^64 and r <= d. Hence q_hat = floor(x*m / 2^64) — the high
/// 64 bits of the 128-bit product — is either floor(x/d) or floor(x/d) - 1,
/// and the candidate remainder x - q_hat*d lies in [0, 2d). One conditional
/// subtraction therefore lands the remainder exactly; no other correction
/// case exists. This holds for every divisor including 1, powers of two,
/// and 2^k ± 1 (the edge widths the property tests sweep).
class FastDiv64 {
 public:
  /// Precomputes the magic multiplier for `divisor` >= 1. (The guarded
  /// magic expression keeps a zero divisor from tripping integer division
  /// UB before the CHECK fires — sketches construct this member before
  /// their own geometry checks run.)
  explicit FastDiv64(uint64_t divisor)
      : divisor_(divisor), magic_(divisor == 0 ? 0 : ~0ULL / divisor) {
    SKETCH_CHECK_MSG(divisor >= 1,
                     "FastDiv64 divisor (bucket width) must be >= 1");
  }

  /// Exactly x % divisor, for every 64-bit x.
  uint64_t Mod(uint64_t x) const {
    uint64_t q = MulHi(x, magic_);
    uint64_t r = x - q * divisor_;
    if (r >= divisor_) r -= divisor_;
    return r;
  }

  /// Exactly x / divisor, for every 64-bit x.
  uint64_t Div(uint64_t x) const {
    uint64_t q = MulHi(x, magic_);
    if (x - q * divisor_ >= divisor_) ++q;
    return q;
  }

  uint64_t divisor() const { return divisor_; }

  /// True iff the divisor is a power of two, where Mod(x) is exactly
  /// x & (divisor() - 1) and a caller may reduce with the mask instead.
  bool is_pow2() const { return std::has_single_bit(divisor_); }

 private:
  static uint64_t MulHi(uint64_t a, uint64_t b) {
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(a) * b) >> 64);
  }

  uint64_t divisor_;
  uint64_t magic_;  // floor((2^64 - 1) / divisor_)
};

}  // namespace sketch

#endif  // SKETCH_KERNELS_FAST_DIV_H_
