#ifndef SKETCH_COMMON_BYTE_BUFFER_H_
#define SKETCH_COMMON_BYTE_BUFFER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

/// \file
/// The one little-endian byte codec: sketch blobs and sketchwire/1 frames
/// (src/server/protocol.h) are written by the Append* helpers and read by
/// ByteReader. A sketch persists only (magic, geometry, seed, counters):
/// its hash functions are rebuilt deterministically from the seed, a
/// practical payoff of seed-derived randomness.
///
/// Decoding never aborts: every reader and check here returns false on bad
/// input, and each sketch's TryDeserialize (or the wire's Decode*) turns
/// that into a rejection, so untrusted bytes (a served Restore, a client
/// frame) need no second validator in front of them.

namespace sketch {

// StoreLittleEndian and LoadLittleEndian are written as one expression per
// byte (a fold over the byte indices, not a loop), so the compiler can merge
// them into a single word store or load where the target allows; gcc -O2
// does on x86-64, and does not for the equivalent loop. They encode every
// fixed-width field. Counter tables bypass them on little-endian hosts
// (AppendWords and ByteReader::ReadWords copy the whole table at once);
// there the fold remains the big-endian path and the oracle the tests
// compare that copy against.

/// Writes `value` into the sizeof(T) bytes at `dst`, least significant
/// byte first.
template <typename T>
void StoreLittleEndian(T value, uint8_t* dst) {
  static_assert(std::is_unsigned_v<T>, "encode unsigned; cast signed first");
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((dst[I] = static_cast<uint8_t>(value >> (8 * I))), ...);
  }(std::make_index_sequence<sizeof(T)>());
}

/// Reads a T written by StoreLittleEndian from the sizeof(T) bytes at
/// `src`.
template <typename T>
T LoadLittleEndian(const uint8_t* src) {
  static_assert(std::is_unsigned_v<T>, "decode unsigned; cast signed after");
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return static_cast<T>(
        (static_cast<T>(static_cast<T>(src[I]) << (8 * I)) | ...));
  }(std::make_index_sequence<sizeof(T)>());
}

/// Appends `value` as sizeof(T) little-endian bytes.
template <typename T>
void AppendLittleEndian(T value, std::vector<uint8_t>* out) {
  uint8_t bytes[sizeof(T)];
  StoreLittleEndian(value, bytes);
  for (uint8_t byte : bytes) out->push_back(byte);
}

/// Fixed-width appends.
inline void AppendU8(uint8_t value, std::vector<uint8_t>* out) {
  out->push_back(value);
}
inline void AppendU16(uint16_t value, std::vector<uint8_t>* out) {
  AppendLittleEndian(value, out);
}
inline void AppendU32(uint32_t value, std::vector<uint8_t>* out) {
  AppendLittleEndian(value, out);
}
inline void AppendU64(uint64_t value, std::vector<uint8_t>* out) {
  AppendLittleEndian(value, out);
}

/// Appends a signed 64-bit value (two's complement).
inline void AppendI64(int64_t value, std::vector<uint8_t>* out) {
  AppendU64(static_cast<uint64_t>(value), out);
}

/// Appends an IEEE-754 double by its bit pattern.
inline void AppendF64(double value, std::vector<uint8_t>* out) {
  AppendU64(std::bit_cast<uint64_t>(value), out);
}

/// Appends `bytes` (a std::string or byte vector) after its length as a
/// little-endian `Length` (u16 or u32). The caller has checked that the
/// length fits its cap, and so fits `Length`.
template <typename Length, typename Bytes>
void AppendLengthPrefixed(const Bytes& bytes, std::vector<uint8_t>* out) {
  AppendLittleEndian(static_cast<Length>(bytes.size()), out);
  out->insert(out->end(), bytes.begin(), bytes.end());
}

/// Appends a counter table (int64_t counters or uint64_t bit words) as
/// little-endian words: one byte-range insert where a word's bytes
/// already are its encoding, the fold per word elsewhere.
template <typename Word>
void AppendWords(const std::vector<Word>& words, std::vector<uint8_t>* out) {
  static_assert(std::is_integral_v<Word> && sizeof(Word) == 8,
                "counter tables are 8-byte words");
  if constexpr (std::endian::native == std::endian::little) {
    const auto* bytes = reinterpret_cast<const uint8_t*>(words.data());
    out->insert(out->end(), bytes, bytes + words.size() * 8);
  } else {
    const std::size_t at = out->size();
    out->resize(at + words.size() * 8);
    uint8_t* dst = out->data() + at;
    for (Word word : words) {
      StoreLittleEndian(static_cast<uint64_t>(word), dst);
      dst += 8;
    }
  }
}

/// The bytes `sketch.AppendSerialized(out)` appends, in a fresh buffer:
/// every sketch's Serialize().
template <typename Sketch>
std::vector<uint8_t> SerializedBytes(const Sketch& sketch) {
  std::vector<uint8_t> out;
  sketch.AppendSerialized(&out);
  return out;
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
inline std::nullopt_t FailDecode(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return std::nullopt;
}

/// Sequential little-endian reader over a serialized buffer or a frame
/// payload. Reads past the end return false and consume nothing.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* value) { return ReadLittleEndian(value); }
  bool ReadU16(uint16_t* value) { return ReadLittleEndian(value); }
  bool ReadU32(uint32_t* value) { return ReadLittleEndian(value); }
  bool ReadU64(uint64_t* value) { return ReadLittleEndian(value); }

  bool ReadI64(int64_t* value) { return ReadWords(std::span(value, 1)); }

  bool ReadF64(double* value) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *value = std::bit_cast<double>(bits);
    return true;
  }

  /// Fills every element of `words` (an array, span, or vector of 8-byte
  /// integers) from consecutive words: one memcpy on a little-endian
  /// host, the fold per word elsewhere. False if fewer words remain.
  template <typename Words>
  bool ReadWords(Words&& words) {
    const std::size_t count = std::size(words);
    if (count > remaining() / 8) return false;
    auto* data = std::data(words);
    using Word = std::remove_reference_t<decltype(*data)>;
    static_assert(std::is_integral_v<Word> && sizeof(Word) == 8,
                  "counter tables are 8-byte words");
    const uint8_t* src = bytes_.data() + position_;
    if constexpr (std::endian::native == std::endian::little) {
      if (count != 0) std::memcpy(data, src, count * 8);
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        data[i] = static_cast<Word>(LoadLittleEndian<uint64_t>(src + 8 * i));
      }
    }
    position_ += count * 8;
    return true;
  }

  /// Reads a byte string written by AppendLengthPrefixed<Length> into
  /// `out`: a std::string or byte vector gets a copy, a
  /// std::span<const uint8_t> borrows the bytes in place. The declared
  /// length is checked against `max_bytes` and against the bytes remaining
  /// before `out` is sized, so a hostile prefix cannot drive an
  /// allocation. False, and nothing consumed, if either check fails.
  template <typename Length, typename Bytes>
  bool ReadLengthPrefixed(uint64_t max_bytes, Bytes* out) {
    const std::size_t start = position_;
    Length length = 0;
    if (!ReadLittleEndian(&length)) return false;
    if (length > max_bytes || length > remaining()) {
      position_ = start;
      return false;
    }
    const std::span<const uint8_t> field = bytes_.subspan(position_, length);
    if constexpr (std::is_same_v<Bytes, std::span<const uint8_t>>) {
      *out = field;
    } else {
      out->assign(field.begin(), field.end());
    }
    position_ += length;
    return true;
  }

  /// The next `words` words as a sub-span of the buffer, for a composite
  /// to hand a component's bytes to that component's TryDeserialize in
  /// place. False if fewer words remain.
  bool ReadSpan(uint64_t words, std::span<const uint8_t>* out) {
    if (words > remaining() / 8) return false;
    *out = bytes_.subspan(position_, words * 8);
    position_ += words * 8;
    return true;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const { return bytes_.size() - position_; }

  /// Words consumed so far.
  uint64_t words_read() const { return position_ / 8; }

  /// True when the whole buffer has been consumed.
  bool AtEnd() const { return position_ == bytes_.size(); }

 private:
  template <typename T>
  bool ReadLittleEndian(T* value) {
    if (remaining() < sizeof(T)) return false;
    *value = LoadLittleEndian<T>(bytes_.data() + position_);
    position_ += sizeof(T);
    return true;
  }

  std::span<const uint8_t> bytes_;
  std::size_t position_ = 0;
};

}  // namespace sketch

#endif  // SKETCH_COMMON_BYTE_BUFFER_H_
