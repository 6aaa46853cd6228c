// Minimal JSON writing helpers shared by the trace exporters, the metrics
// registry, and the bench --json emitter. Writing only — every JSON input
// is read by the one lexer in obs/analyze/json_reader.h; the JSONL event
// grammar on top of it sits in obs/export.cpp next to its writer so the
// two stay in lockstep.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace wsn::obs {

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
inline void json_append_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Appends `v` so that it parses back to the same double: %.17g, forced to
/// contain '.' or an exponent so readers can distinguish it from integers.
/// Works on the stack buffer directly — no temporary std::string — so the
/// reuse path (append_jsonl into a retained buffer) stays allocation-free.
inline void json_append_double(std::string& out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  bool integral_form = true;
  bool special = false;  // inf/nan
  for (int i = 0; i < n; ++i) {
    if (buf[i] == '.' || buf[i] == 'e') integral_form = false;
    if (buf[i] == 'i' || buf[i] == 'n') special = true;
  }
  // JSON has no inf/nan literals; clamp to null (exporters never emit these
  // in practice, but a metric could be inf e.g. an empty Summary's min).
  if (special) {
    out += "null";
    return;
  }
  out.append(buf, static_cast<std::size_t>(n));
  if (integral_form) out += ".0";
}

/// Decimal integer appenders mirroring std::to_string's output, minus its
/// temporary allocation.
inline void json_append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const int n =
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

inline void json_append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n =
      std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

inline void json_append_value(std::string& out, const AttrValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    json_append_int(out, *i);
  } else if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    json_append_uint(out, *u);
  } else if (const auto* d = std::get_if<double>(&v)) {
    json_append_double(out, *d);
  } else {
    json_append_string(out, std::get<AttrCode>(v).str());
  }
}

}  // namespace wsn::obs
