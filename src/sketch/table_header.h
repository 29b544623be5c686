#ifndef SKETCH_SKETCH_TABLE_HEADER_H_
#define SKETCH_SKETCH_TABLE_HEADER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "sketch/width_mode.h"

/// \file
/// The one codec for the serialized header of the hashed-counter tables
/// (CountMinSketch, CountSketch, BloomFilter, AmsSketch). Division-mode
/// tables write v1, (magic, size, depth, seed), byte for byte the layout
/// that predates width modes. Pow2 tables write v2, (magic_v2, size,
/// depth, seed, mode); a division-mode v2 buffer is malformed, not merely
/// redundant. AmsSketch has no pow2 mode, so it writes only v1. `size` is
/// the width or Bloom bit count, `depth` the row or Bloom hash count. Each
/// family keeps its own geometry range check and counter payload.

namespace sketch {

/// One family's magics and the words its rejection messages use.
struct TableFormat {
  uint64_t magic_v1;
  uint64_t magic_v2;      ///< magic_v1 again for a family with no v2
  const char* family;     ///< e.g. "CountMinSketch"
  const char* size_noun;  ///< what `size` is called: "width" or "bit count"

  /// False for a family with no pow2 mode (and so no v2 header).
  constexpr bool has_width_mode() const { return magic_v2 != magic_v1; }
};

struct TableHeader {
  uint64_t size = 0;
  uint64_t depth = 0;
  uint64_t seed = 0;
  WidthMode mode = WidthMode::kDivision;
};

/// Appends a serialized table to `out`: the v1 or v2 header, then
/// `words`. A served snapshot appends straight into its response frame.
template <typename Word>
void AppendTable(const TableFormat& format, const TableHeader& header,
                 const std::vector<Word>& words, std::vector<uint8_t>* out) {
  const bool v1 = header.mode == WidthMode::kDivision;
  AppendU64(v1 ? format.magic_v1 : format.magic_v2, out);
  AppendU64(header.size, out);
  AppendU64(header.depth, out);
  AppendU64(header.seed, out);
  if (!v1) AppendU64(static_cast<uint64_t>(header.mode), out);
  AppendWords(words, out);
}

/// A family's geometry range check: the rejection message for an
/// out-of-range (size, depth), or nullptr.
using TableGeometryCheck = const char* (*)(uint64_t size, uint64_t depth);

/// Reads a v1 or v2 header and checks, in order: the words are present,
/// the magic, `check_geometry`, and for v2 the mode word and a power-of-two
/// size. On the first failure records why in `error` (when non-null) and
/// returns nullopt. The counters that follow are left to the caller.
inline std::optional<TableHeader> ReadTableHeader(
    const TableFormat& format, TableGeometryCheck check_geometry,
    ByteReader* reader, std::string* error) {
  uint64_t words[4] = {};
  if (!reader->ReadWords(words)) {
    return FailDecode(error, "truncated sketch buffer");
  }
  const auto [magic, size, depth, seed] = words;
  if (magic != format.magic_v1 && magic != format.magic_v2) {
    // "a CountMinSketch", "an AmsSketch".
    const char* article = std::strchr("AEIOU", format.family[0]) != nullptr
                              ? "an "
                              : "a ";
    return FailDecode(error, std::string("not ") + article + format.family +
                                 " buffer");
  }
  if (const char* message = check_geometry(size, depth)) {
    return FailDecode(error, message);
  }
  if (magic == format.magic_v1) return TableHeader{size, depth, seed};
  uint64_t mode_word = 0;
  if (!reader->ReadU64(&mode_word)) {
    return FailDecode(error, "truncated sketch buffer");
  }
  if (mode_word != static_cast<uint64_t>(WidthMode::kPow2)) {
    return FailDecode(error,
                      std::string("invalid ") + format.family + " width mode");
  }
  if (!std::has_single_bit(size)) {
    return FailDecode(error, std::string("pow2 ") + format.family + " " +
                                 format.size_noun + " is not a power of two");
  }
  return TableHeader{size, depth, seed, WidthMode::kPow2};
}

}  // namespace sketch

#endif  // SKETCH_SKETCH_TABLE_HEADER_H_
