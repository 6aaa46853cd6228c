#include "obs/analyze/json_reader.h"

#include <charconv>
#include <limits>

namespace wsn::obs::analyze {

JsonError::JsonError(std::size_t line, const std::string& reason)
    : std::runtime_error("json: line " + std::to_string(line) + ": " + reason),
      line_(line),
      reason_(reason) {}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

void JsonLexer::fail(const std::string& reason) const {
  throw JsonError(line_, reason);
}

void JsonLexer::expect(char c) {
  if (consume(c)) return;
  fail(pos_ >= s_.size() ? std::string("unexpected end of input, expected '") +
                               c + "'"
                         : std::string("expected '") + c + "'");
}

void JsonLexer::expect_word(std::string_view word) {
  skip_ws();
  if (s_.substr(pos_, word.size()) != word) fail("bad literal");
  pos_ += word.size();
}

void JsonLexer::expect_end() {
  skip_ws();
  if (pos_ != s_.size()) fail("trailing garbage after the document");
}

std::uint32_t JsonLexer::read_hex4() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i, ++pos_) {
    const char c = pos_ < s_.size() ? s_[pos_] : '\0';
    v <<= 4;
    if (is_digit(c)) {
      v |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      fail("\\u escape needs four hex digits");
    }
  }
  return v;
}

void JsonLexer::read_string(std::string& out) {
  expect('"');
  out.clear();
  while (true) {
    const std::size_t run = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\' &&
           static_cast<unsigned char>(s_[pos_]) >= 0x20) {
      ++pos_;
    }
    out.append(s_.data() + run, pos_ - run);
    if (pos_ >= s_.size()) fail("unterminated string");
    const char c = s_[pos_++];
    if (c == '"') return;
    if (c != '\\') fail("control character in string");
    const char esc = pos_ < s_.size() ? s_[pos_++] : '\0';
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        std::uint32_t cp = read_hex4();
        if (cp >= 0xDC00 && cp <= 0xDFFF) fail("unpaired surrogate");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          if (s_.substr(pos_, 2) != "\\u") fail("unpaired surrogate");
          pos_ += 2;
          const std::uint32_t low = read_hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, cp);
        break;
      }
      default: fail("unknown escape");
    }
  }
}

JsonNumber JsonLexer::read_number() {
  skip_ws();
  const auto digit_at = [this](std::size_t i) {
    return i < s_.size() && is_digit(s_[i]);
  };
  const std::size_t start = pos_;
  const bool negative = pos_ < s_.size() && s_[pos_] == '-';
  if (negative) ++pos_;
  if (!digit_at(pos_)) {
    if (negative) fail("malformed number");
    fail(pos_ >= s_.size() ? "unexpected end of input" : "expected a value");
  }
  const std::size_t int_start = pos_;
  if (s_[pos_] == '0') {
    ++pos_;
  } else {
    while (digit_at(pos_)) ++pos_;
  }
  const std::size_t int_end = pos_;
  bool is_double = false;
  if (pos_ < s_.size() && s_[pos_] == '.') {
    ++pos_;
    if (!digit_at(pos_)) fail("malformed number");
    while (digit_at(pos_)) ++pos_;
    is_double = true;
  }
  if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
    if (!digit_at(pos_)) fail("malformed number");
    while (digit_at(pos_)) ++pos_;
    is_double = true;
  }
  // Whatever follows must end the token: "01", "1.2.3" and "1-2" are one
  // malformed number each, not a number and some trailing bytes.
  if (pos_ < s_.size()) {
    const char c = s_[pos_];
    if (is_digit(c) || c == '.' || c == '-' || c == '+' || c == 'e' ||
        c == 'E') {
      fail("malformed number");
    }
  }

  if (is_double) {
    double d = 0.0;
    const auto [end, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, d);
    if (ec != std::errc() || end != s_.data() + pos_) {
      fail("number out of range for a double");
    }
    return d;
  }
  // Integers: accumulate the magnitude, refusing anything past uint64.
  std::uint64_t magnitude = 0;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = int_start; i < int_end; ++i) {
    const auto d = static_cast<std::uint64_t>(s_[i] - '0');
    if (magnitude > (kMax - d) / 10) fail("integer out of range");
    magnitude = magnitude * 10 + d;
  }
  if (!negative) return magnitude;
  constexpr std::uint64_t kMinMagnitude = std::uint64_t{1} << 63;
  if (magnitude > kMinMagnitude) fail("integer out of range");
  if (magnitude == kMinMagnitude) {
    return std::numeric_limits<std::int64_t>::min();
  }
  return -static_cast<std::int64_t>(magnitude);
}

double JsonValue::number() const {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return static_cast<double>(*u);
  }
  throw JsonError(line, "value is not a number");
}

const std::string& JsonValue::string() const {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw JsonError(line, "value is not a string");
}

const JsonArray& JsonValue::array() const {
  if (const auto* a = std::get_if<JsonArray>(&v)) return *a;
  throw JsonError(line, "value is not an array");
}

const JsonObject& JsonValue::object() const {
  if (const auto* o = std::get_if<JsonObject>(&v)) return *o;
  throw JsonError(line, "value is not an object");
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, val] : object()) {
    if (k == key) return &val;
  }
  return nullptr;
}

namespace {

/// Deepest array/object nesting accepted. Plans, snapshots and perf files
/// nest about 5 deep; the cap bounds the parser's recursion (and the
/// value's recursive destructor) on untrusted input.
constexpr std::size_t kMaxDepth = 256;

JsonValue parse_value(JsonLexer& lex, std::size_t depth) {
  JsonValue out;
  const char c = lex.peek();
  out.line = lex.line();
  if (c == '{' || c == '[') {
    if (depth == kMaxDepth) {
      lex.fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
    }
    if (lex.consume('[')) {
      JsonArray arr;
      if (!lex.consume(']')) {
        do {
          arr.push_back(parse_value(lex, depth + 1));
        } while (lex.consume(','));
        lex.expect(']');
      }
      out.v = std::move(arr);
    } else {
      lex.expect('{');
      JsonObject obj;
      if (!lex.consume('}')) {
        do {
          std::string key;
          lex.read_string(key);
          lex.expect(':');
          obj.emplace_back(std::move(key), parse_value(lex, depth + 1));
        } while (lex.consume(','));
        lex.expect('}');
      }
      out.v = std::move(obj);
    }
  } else if (c == '"') {
    std::string s;
    lex.read_string(s);
    out.v = std::move(s);
  } else if (c == 't') {
    lex.expect_word("true");
    out.v = true;
  } else if (c == 'f') {
    lex.expect_word("false");
    out.v = false;
  } else if (c == 'n') {
    lex.expect_word("null");
    out.v = nullptr;
  } else {
    std::visit([&out](auto n) { out.v.emplace<decltype(n)>(n); },
               lex.read_number());
  }
  return out;
}

}  // namespace

JsonValue parse_json(std::string_view text, std::size_t first_line) {
  JsonLexer lex(text, first_line);
  JsonValue v = parse_value(lex, 0);
  lex.expect_end();
  return v;
}

}  // namespace wsn::obs::analyze
