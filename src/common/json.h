// The repo's one JSON codec, for the subset it writes (objects, arrays,
// strings, numbers). Writers: append_json_string and append_json_number,
// used by request traces (service/trace.h), metrics snapshots
// (obs/export.h) and bench records (bench/bench_util.h). Reader: the
// strict JsonCursor, which traces and metrics snapshots parse with.
// Malformed input throws PreconditionError whose message starts with the
// document kind the cursor was built with ("trace JSON: expected ':' at
// offset 12").
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/check.h"

namespace sarbp {

/// Appends `text` as a JSON string: quotes and backslashes escaped, every
/// other control character as \u00XX.
inline void append_json_string(std::string& out, std::string_view text) {
  constexpr std::string_view kHex = "0123456789abcdef";
  out.push_back('"');
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (byte < 0x20) {
      out += "\\u00";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xFu]);
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

/// Appends `v` in the printf %.17g form, which reads back as the same
/// double.
inline void append_json_number(std::string& out, double v) {
  char buf[32];  // %.17g needs at most 24
  const auto result =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

class JsonCursor {
 public:
  /// `what` names the document in error messages ("trace JSON").
  JsonCursor(const std::string& text, std::string what)
      : text_(text), what_(std::move(what)) {}

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'", pos_);
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// A string; the writers escape only '"', '\\' and control characters,
  /// so a \u escape must name an ASCII code point.
  [[nodiscard]] std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character", pos_ - 1);
      }
      if (c == '\\' && pos_ < text_.size()) {
        constexpr std::string_view kEscapes = "\"\\/bfnrt";
        constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        const char esc = text_[pos_++];
        if (const auto at = kEscapes.find(esc); at != kEscapes.npos) {
          c = kDecoded[at];
        } else if (esc == 'u') {
          unsigned code = 0;
          const char* hex = text_.data() + pos_;
          const auto [end, ec] = std::from_chars(
              hex, text_.data() + std::min(pos_ + 4, text_.size()), code, 16);
          if (ec != std::errc() || end != hex + 4 || code >= 0x80) {
            fail("bad \\u escape", pos_);
          }
          pos_ += 4;
          c = static_cast<char>(code);
        } else {
          fail("bad escape", pos_ - 1);
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string", pos_);
    ++pos_;  // closing quote
    return out;
  }

  /// Reads an object, calling on_key(key) with the cursor at each member's
  /// value; a repeated key is an error.
  template <class OnKey>
  void object(OnKey&& on_key) {
    expect('{');
    if (consume('}')) return;
    std::set<std::string> seen;
    do {
      const std::size_t at = pos_;
      std::string key = string();
      if (!seen.insert(key).second) fail("repeated key \"" + key + "\"", at);
      expect(':');
      on_key(key);
    } while (consume(','));
    expect('}');
  }

  [[nodiscard]] double number() { return parse<double>("a number"); }

  /// A number that is an integer in T's range: no fraction or exponent.
  template <class T>
  [[nodiscard]] T integer() { return parse<T>("an integer in range"); }

  void expect_end() {
    skip_ws();
    if (pos_ != text_.size()) fail("text after the document", pos_);
  }

 private:
  [[noreturn]] void fail(const std::string& message, std::size_t at) const {
    throw PreconditionError(what_ + ": " + message + " at offset " +
                            std::to_string(at));
  }

  /// Reads the next JSON number in place and converts all of it to T.
  template <class T>
  T parse(const char* what) {
    skip_ws();
    const std::size_t begin = pos_;
    const auto digits = [this] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
      return pos_ > first;
    };
    const auto take = [this](char c) {
      const bool match = pos_ < text_.size() && text_[pos_] == c;
      if (match) ++pos_;
      return match;
    };
    take('-');
    bool ok = digits();
    if (ok && take('.')) ok = digits();
    if (ok && (take('e') || take('E'))) {
      if (!take('+')) take('-');
      ok = digits();
    }
    const char* first = text_.data() + begin;
    const char* last = text_.data() + pos_;
    T value{};
    const auto [end, ec] = std::from_chars(first, last, value);
    if (!ok || ec != std::errc() || end != last) {
      fail(std::string("expected ") + what, begin);
    }
    return value;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  const std::string what_;
  std::size_t pos_ = 0;
};

}  // namespace sarbp
