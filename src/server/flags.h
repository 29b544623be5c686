#ifndef SKETCH_SERVER_FLAGS_H_
#define SKETCH_SERVER_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

/// \file
/// Command-line flags of sketch_serverd, sketch_loadgen and sketch_top:
/// `--name=value` flags whose numbers must be whole decimal numbers within
/// a range, so `--port=70000`, `-1` or `80x` is refused instead of
/// wrapping around, and whose fractions and rates must be finite decimal
/// numbers within a range, so `--rate=fast` is refused instead of reading
/// as 0. Each binary prints its usage line and exits 2 on a refused value.

namespace sketch::server {

/// True when `arg` is `--name=...`; sets *value to the text after `=`.
inline bool ParseFlag(const std::string& arg, const std::string& name,
                      std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Parses all of `text` as a decimal integer in [min, max] into *out,
/// whose type must hold `max`; leaves *out alone and returns false
/// otherwise.
template <typename Int>
bool ParseNumber(std::string_view text, uint64_t min, uint64_t max,
                 Int* out) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = static_cast<Int>(value);
  return true;
}

/// Parses all of `text` as a finite decimal number in [min, max] into
/// *out; leaves *out alone and returns false otherwise (empty text, junk,
/// inf, nan, out of range).
inline bool ParseDouble(std::string_view text, double min, double max,
                        double* out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace sketch::server

#endif  // SKETCH_SERVER_FLAGS_H_
