// A strict JSON syntax check for tests (RFC 8259): one value, nothing
// after it, no raw control bytes inside strings, and only the escapes the
// grammar allows. It validates; it builds no tree.

#ifndef SKETCH_TESTS_SERVER_JSON_CHECK_H_
#define SKETCH_TESTS_SERVER_JSON_CHECK_H_

#include <cctype>
#include <cstddef>
#include <cstring>
#include <string_view>

namespace sketch::server {

class JsonCheck {
 public:
  /// True iff `text` is exactly one well-formed JSON value (surrounding
  /// whitespace allowed).
  static bool Valid(std::string_view text) {
    JsonCheck check(text);
    if (!check.Value()) return false;
    check.SkipSpace();
    return check.Done();
  }

 private:
  explicit JsonCheck(std::string_view text) : text_(text) {}

  bool Done() const { return at_ >= text_.size(); }
  char Peek() const { return Done() ? '\0' : text_[at_]; }

  void SkipSpace() {
    while (!Done() && std::strchr(" \t\r\n", Peek()) != nullptr) ++at_;
  }

  bool Eat(char c) {
    SkipSpace();
    if (Peek() != c) return false;
    ++at_;
    return true;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(at_, word.size()) != word) return false;
    at_ += word.size();
    return true;
  }

  bool Value() {
    SkipSpace();
    switch (Peek()) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++at_;  // '{'
    if (Eat('}')) return true;
    do {
      SkipSpace();
      if (Peek() != '"' || !String() || !Eat(':') || !Value()) return false;
    } while (Eat(','));
    return Eat('}');
  }

  bool Array() {
    ++at_;  // '['
    if (Eat(']')) return true;
    do {
      if (!Value()) return false;
    } while (Eat(','));
    return Eat(']');
  }

  bool String() {
    ++at_;  // opening quote
    while (!Done()) {
      const auto c = static_cast<unsigned char>(text_[at_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;  // raw control byte
      if (c != '\\') continue;
      if (Done()) return false;
      const char escape = text_[at_++];
      if (escape == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (Done() || !std::isxdigit(static_cast<unsigned char>(Peek()))) {
            return false;
          }
          ++at_;
        }
      } else if (std::strchr("\"\\/bfnrt", escape) == nullptr ||
                 escape == '\0') {
        return false;
      }
    }
    return false;  // unterminated
  }

  bool Digits() {
    const std::size_t start = at_;
    while (!Done() && std::isdigit(static_cast<unsigned char>(Peek()))) ++at_;
    return at_ > start;
  }

  bool Number() {
    if (Peek() == '-') ++at_;
    if (Peek() == '0') {
      ++at_;
    } else if (!Digits()) {
      return false;
    }
    if (Peek() == '.') {
      ++at_;
      if (!Digits()) return false;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++at_;
      if (Peek() == '+' || Peek() == '-') ++at_;
      if (!Digits()) return false;
    }
    return true;
  }

  std::string_view text_;
  std::size_t at_ = 0;
};

}  // namespace sketch::server

#endif  // SKETCH_TESTS_SERVER_JSON_CHECK_H_
