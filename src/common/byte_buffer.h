#ifndef SKETCH_COMMON_BYTE_BUFFER_H_
#define SKETCH_COMMON_BYTE_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

/// \file
/// Minimal little-endian binary encode/decode helpers used by the sketch
/// serialization methods. Sketches serialize as (magic, geometry, seed,
/// counters); the hash functions are rebuilt deterministically from the
/// seed, so no hash state needs to be persisted — a practical payoff of
/// seed-derived randomness.
///
/// Decoding never aborts: every reader and check here returns false on bad
/// input, and each sketch's TryDeserialize turns that into std::nullopt
/// plus a message, so untrusted bytes (a served Restore) need no second
/// validator in front of the library.

namespace sketch {

/// Appends a little-endian u64.
inline void AppendU64(uint64_t value, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

/// Appends a signed 64-bit value (two's complement).
inline void AppendI64(int64_t value, std::vector<uint8_t>* out) {
  AppendU64(static_cast<uint64_t>(value), out);
}

/// Appends a counter table (int64_t counters or uint64_t bit words) as
/// little-endian words. Every sketch's counters are encoded by this one
/// loop.
template <typename Word>
void AppendWords(const std::vector<Word>& words, std::vector<uint8_t>* out) {
  static_assert(sizeof(Word) == 8, "counter tables are 8-byte words");
  for (Word word : words) AppendU64(static_cast<uint64_t>(word), out);
}

/// Overflow-checked product of two u64 geometry fields read from an
/// untrusted buffer: stores a * b and returns true, or returns false when
/// the product would wrap.
inline bool CheckedMulU64(uint64_t a, uint64_t b, uint64_t* product) {
  if (a != 0 && b > UINT64_MAX / a) return false;
  *product = a * b;
  return true;
}

/// Uniform pre-allocation guard for TryDeserialize() implementations:
/// after reading the fixed-size header (`header_words` little-endian u64s)
/// and computing the expected payload length (`payload_words` u64s) from
/// the untrusted geometry fields, this is true only if the buffer holds
/// exactly the advertised number of words. Called *before* any allocation
/// is sized from those fields, it rejects truncated, length-inflated, and
/// geometry-inflated buffers with a single check, so a decode never
/// allocates more counters than the buffer carries.
inline bool CheckSerializedSize(std::span<const uint8_t> bytes,
                                uint64_t header_words,
                                uint64_t payload_words) {
  return payload_words <= UINT64_MAX / 8 - header_words &&
         bytes.size() == (header_words + payload_words) * 8;
}

/// Records why a TryDeserialize() rejected its input (when `error` is
/// non-null) and returns the empty optional, so each check reads
/// `if (bad) return FailDecode(error, "...");`.
inline std::nullopt_t FailDecode(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return std::nullopt;
}

/// Sequential little-endian reader over a serialized buffer. Reads past
/// the end return false and consume nothing.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool ReadU64(uint64_t* value) { return ReadWords(std::span(value, 1)); }

  bool ReadI64(int64_t* value) { return ReadWords(std::span(value, 1)); }

  /// Fills every element of `words` (an array, span, or vector of 8-byte
  /// integers) from consecutive words. Headers and counter tables are all
  /// decoded by this one loop. False if fewer words remain.
  template <typename Words>
  bool ReadWords(Words&& words) {
    if (std::size(words) > (bytes_.size() - position_) / 8) return false;
    for (auto& word : words) {
      static_assert(sizeof(word) == 8, "counter tables are 8-byte words");
      uint64_t value = 0;
      for (int i = 7; i >= 0; --i) value = value << 8 | bytes_[position_ + i];
      word = static_cast<std::remove_reference_t<decltype(word)>>(value);
      position_ += 8;
    }
    return true;
  }

  /// The next `words` words as a sub-span of the buffer, for a composite
  /// to hand a component's bytes to that component's TryDeserialize in
  /// place. False if fewer words remain.
  bool ReadSpan(uint64_t words, std::span<const uint8_t>* out) {
    if (words > (bytes_.size() - position_) / 8) return false;
    *out = bytes_.subspan(position_, words * 8);
    position_ += words * 8;
    return true;
  }

  /// Words consumed so far.
  uint64_t words_read() const { return position_ / 8; }

  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return position_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  std::size_t position_ = 0;
};

}  // namespace sketch

#endif  // SKETCH_COMMON_BYTE_BUFFER_H_
