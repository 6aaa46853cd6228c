#include "obs/analyze/json_reader.h"

#include <cctype>
#include <cstdlib>

namespace wsn::obs::analyze {

double JsonValue::number() const {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    return static_cast<double>(*u);
  }
  throw std::runtime_error("json: value is not a number");
}

const std::string& JsonValue::string() const {
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw std::runtime_error("json: value is not a string");
}

const JsonArray& JsonValue::array() const {
  if (const auto* a = std::get_if<JsonArray>(&v)) return *a;
  throw std::runtime_error("json: value is not an array");
}

const JsonObject& JsonValue::object() const {
  if (const auto* o = std::get_if<JsonObject>(&v)) return *o;
  throw std::runtime_error("json: value is not an object");
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

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return {parse_string()};
      case 't': expect_word("true"); return {true};
      case 'f': expect_word("false"); return {false};
      case 'n': expect_word("null"); return {nullptr};
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return {std::move(obj)};
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return {std::move(obj)};
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return {std::move(arr)};
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return {std::move(arr)};
    }
  }

  /// Same typing rule as the trace-line parser: '.'/'e' => double,
  /// leading '-' => int64, else uint64.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      if (s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E') {
        is_double = true;
      }
      ++pos_;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("expected a value");
    if (is_double) return {std::strtod(tok.c_str(), nullptr)};
    if (tok[0] == '-') {
      return {static_cast<std::int64_t>(std::strtoll(tok.c_str(), nullptr, 10))};
    }
    return {static_cast<std::uint64_t>(std::strtoull(tok.c_str(), nullptr, 10))};
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
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
            if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
            out += static_cast<char>(
                std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    ++pos_;  // closing quote
    return out;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void expect_word(const char* w) {
    for (const char* p = w; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) fail("bad literal");
      ++pos_;
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace wsn::obs::analyze
