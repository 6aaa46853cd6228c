// Shared helpers for the experiment benches: formatting and the
// machine-readable --json emitter.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/json.h"
#include "obs/scoped_timer.h"

namespace wsn::bench {

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& claim) {
  std::printf("=== %s: %s ===\n", id.c_str(), title.c_str());
  std::printf("Paper artifact/claim: %s\n\n", claim.c_str());
}

/// Value of `--json <path>` in argv, or "" when absent. Every bench accepts
/// this flag; with it, the bench appends one JSON object per result row to
/// `<path>` alongside its human-readable table.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

/// Machine-readable result emitter: one JSON object per row, JSONL framing.
///
/// Contract (the BENCH_*.json perf-trajectory consumer relies on it):
///   {"bench":"<bench id>", "<field>":<number|string>, ...}
/// Field names are bench-specific; numeric fields round-trip as written.
/// A default-constructed or empty-path writer is disabled and row() is a
/// no-op, so benches call it unconditionally.
class JsonWriter {
 public:
  JsonWriter() = default;
  explicit JsonWriter(const std::string& path) {
    if (!path.empty()) out_ = std::fopen(path.c_str(), "w");
  }
  ~JsonWriter() {
    if (out_ != nullptr) std::fclose(out_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  bool enabled() const { return out_ != nullptr; }

  /// One row field's value.
  using Field = std::variant<std::int64_t, std::uint64_t, double, std::string>;

  void row(const std::string& bench,
           std::initializer_list<std::pair<const char*, Field>> fields) {
    if (out_ == nullptr) return;
    std::string line = "{\"bench\":";
    obs::json_append_string(line, bench);
    for (const auto& [key, value] : fields) {
      line += ',';
      obs::json_append_string(line, key);
      line += ':';
      std::visit(
          [&line](const auto& v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::int64_t>) {
              obs::json_append_int(line, v);
            } else if constexpr (std::is_same_v<T, std::uint64_t>) {
              obs::json_append_uint(line, v);
            } else if constexpr (std::is_same_v<T, double>) {
              obs::json_append_double(line, v);
            } else {
              obs::json_append_string(line, v);
            }
          },
          value);
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), out_);
  }

 private:
  std::FILE* out_ = nullptr;
};

}  // namespace wsn::bench
