#ifndef SKETCH_COMMON_JSON_ESCAPE_H_
#define SKETCH_COMMON_JSON_ESCAPE_H_

#include <string>
#include <string_view>

/// \file
/// The one JSON string escaper. Sketch names are arbitrary client bytes,
/// and every JSON body that quotes one (/statsz, /healthz, the slow-query
/// log) escapes it here, so one name reads the same in all of them.

namespace sketch {

/// `raw` as the contents of a JSON string: `"` and `\` are
/// backslash-quoted, control bytes become \u00XX, and every other byte
/// passes through unchanged.
inline std::string EscapeJson(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (byte < 0x20) {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\u00";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace sketch

#endif  // SKETCH_COMMON_JSON_ESCAPE_H_
