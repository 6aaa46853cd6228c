// The one JSON lexer in the tree, and the document tree built on it.
//
// Every JSON input goes through JsonLexer: fault plans, MetricsRegistry
// snapshots, profiler dumps, bench --json rows and Chrome trace files
// through parse_json() below, and trace JSONL through
// obs::parse_jsonl_line (obs/export.cpp), which decodes each event straight
// off the lexer without building a tree. The lexer counts lines as it
// reads: every error is a JsonError that reads "json: line L: <reason>",
// and every JsonValue records the line it starts on, so a fault plan can
// name the line of the event it rejects.
//
// Input is checked once, here. Numbers must match JSON's number grammar and
// fit their type, which follows the repo-wide convention: '.'/exponent =>
// a finite double, leading '-' => int64, otherwise uint64 — so numeric
// fields round-trip through json_append_value/json_append_double
// losslessly. A \u escape takes exactly four hex digits (a surrogate pair
// two escapes) and is decoded to UTF-8. Strings may not hold raw control
// characters, and arrays and objects nest at most 256 deep.
//
// Compiled into wsn_obs, which owns the JSONL reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace wsn::obs::analyze {

/// Malformed or mistyped JSON input; what() reads "json: line L: <reason>".
class JsonError : public std::runtime_error {
 public:
  JsonError(std::size_t line, const std::string& reason);

  std::size_t line() const { return line_; }
  const std::string& reason() const { return reason_; }

 private:
  std::size_t line_;
  std::string reason_;
};

using JsonNumber = std::variant<std::int64_t, std::uint64_t, double>;

/// Pull lexer over one JSON text. Each read skips the whitespace before
/// its token; a read that does not find what it asks for throws JsonError
/// at the line it stopped on.
class JsonLexer {
 public:
  /// Reads `text`, whose first byte sits on line `first_line`.
  explicit JsonLexer(std::string_view text, std::size_t first_line = 1)
      : s_(text), line_(first_line) {}

  /// The next token's first byte, or '\0' at the end of input.
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  /// Consumes `c` if it is the next token.
  bool consume(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// Consumes `c`, or fails.
  void expect(char c);

  /// A string literal, decoded into `out` (which is overwritten).
  void read_string(std::string& out);

  /// A number literal, typed as described above.
  JsonNumber read_number();

  /// The literal `word` ("true", "false" or "null").
  void expect_word(std::string_view word);

  /// Fails unless only whitespace is left.
  void expect_end();

  /// Line of the next unread byte.
  std::size_t line() const { return line_; }

  [[noreturn]] void fail(const std::string& reason) const;

 private:
  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        return;
      }
      ++pos_;
    }
  }

  std::uint32_t read_hex4();

  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t line_;
};

struct JsonValue;

/// Object members in document order (bench rows and snapshots are written
/// in a deterministic order; preserving it keeps diffs stable).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, JsonArray, JsonObject>
      v = nullptr;
  /// 1-based line of the value's first byte in the parsed text.
  std::size_t line = 0;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v); }
  bool is_bool() const { return std::holds_alternative<bool>(v); }
  bool is_string() const { return std::holds_alternative<std::string>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_number() const {
    return std::holds_alternative<std::int64_t>(v) ||
           std::holds_alternative<std::uint64_t>(v) ||
           std::holds_alternative<double>(v);
  }

  /// Numeric value as double. Throws JsonError at `line` if not a number.
  double number() const;
  /// String value. Throws JsonError at `line` if not a string.
  const std::string& string() const;
  /// Array value. Throws JsonError at `line` if not an array.
  const JsonArray& array() const;
  /// Object value. Throws JsonError at `line` if not an object.
  const JsonObject& object() const;

  /// First member named `key`, or nullptr. Requires an object.
  const JsonValue* find(const std::string& key) const;
};

/// Parses one complete JSON document, whose first byte sits on line
/// `first_line`; throws JsonError on malformed input or trailing garbage.
JsonValue parse_json(std::string_view text, std::size_t first_line = 1);

}  // namespace wsn::obs::analyze
