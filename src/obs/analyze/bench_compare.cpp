#include "obs/analyze/bench_compare.h"

#include <cmath>
#include <map>
#include <sstream>

#include "obs/analyze/json_reader.h"

namespace wsn::obs::analyze {

namespace {

/// Rows grouped by "bench" id, in first-appearance order.
struct RowGroups {
  std::vector<std::string> order;
  std::map<std::string, std::vector<JsonObject>> by_bench;
};

RowGroups parse_rows(const std::string& jsonl, const char* which) {
  RowGroups groups;
  std::istringstream in(jsonl);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = parse_json(line, lineno);
    } catch (const JsonError& e) {
      throw std::runtime_error(std::string(which) + ": " + e.what());
    }
    const JsonValue* bench = v.is_object() ? v.find("bench") : nullptr;
    if (bench == nullptr || !bench->is_string()) {
      throw std::runtime_error(std::string(which) + " line " +
                               std::to_string(lineno) +
                               ": row has no \"bench\" id");
    }
    auto [it, fresh] = groups.by_bench.try_emplace(bench->string());
    if (fresh) groups.order.push_back(bench->string());
    it->second.push_back(v.object());
  }
  return groups;
}

bool ends_with(const std::string& name, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return name.size() >= n &&
         name.compare(name.size() - n, n, suffix) == 0;
}

/// Host-time measurements and rates derived from them; see header.
bool wall_clock_field(const std::string& name) {
  return ends_with(name, "_ms") || ends_with(name, "_ns") ||
         ends_with(name, "_per_sec");
}

/// For wall-clock fields: which drift direction means "slower"?
bool higher_is_better(const std::string& name) {
  return ends_with(name, "_per_sec");
}

const JsonValue* find_in(const JsonObject& row, const std::string& key) {
  for (const auto& [k, v] : row) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

double FieldDelta::rel_change() const {
  return (current - baseline) / std::max(std::abs(baseline), 1.0);
}

CompareReport compare_bench(const std::string& baseline_jsonl,
                            const std::string& current_jsonl,
                            const CompareOptions& options) {
  const RowGroups base = parse_rows(baseline_jsonl, "baseline");
  const RowGroups cur = parse_rows(current_jsonl, "current");
  CompareReport report;

  for (const std::string& bench : base.order) {
    if (!options.bench_filter.empty() && bench != options.bench_filter) {
      continue;
    }
    const auto& base_rows = base.by_bench.at(bench);
    const auto cur_it = cur.by_bench.find(bench);
    if (cur_it == cur.by_bench.end()) {
      report.mismatches.push_back("bench '" + bench +
                                  "' missing from current output");
      continue;
    }
    const auto& cur_rows = cur_it->second;
    if (cur_rows.size() != base_rows.size()) {
      report.mismatches.push_back(
          "bench '" + bench + "': baseline has " +
          std::to_string(base_rows.size()) + " rows, current has " +
          std::to_string(cur_rows.size()));
      continue;
    }
    for (std::size_t i = 0; i < base_rows.size(); ++i) {
      ++report.rows_compared;
      for (const auto& [key, base_val] : base_rows[i]) {
        if (key == "bench") continue;
        const JsonValue* cur_val = find_in(cur_rows[i], key);
        if (cur_val == nullptr) {
          report.mismatches.push_back("bench '" + bench + "' row " +
                                      std::to_string(i) + ": field '" + key +
                                      "' missing from current");
          continue;
        }
        if (base_val.is_string()) {
          if (!cur_val->is_string() ||
              cur_val->string() != base_val.string()) {
            report.mismatches.push_back("bench '" + bench + "' row " +
                                        std::to_string(i) + ": field '" +
                                        key + "' changed identity");
          }
          continue;
        }
        if (!base_val.is_number()) continue;
        const bool wall = wall_clock_field(key);
        if (wall && options.wallclock_tolerance < 0) continue;  // skipped
        if (!cur_val->is_number()) {
          report.mismatches.push_back("bench '" + bench + "' row " +
                                      std::to_string(i) + ": field '" + key +
                                      "' is no longer numeric");
          continue;
        }
        ++report.fields_compared;
        FieldDelta delta{bench, i, key, base_val.number(), cur_val->number()};
        const double rc = delta.rel_change();
        const bool worse =
            wall ? (higher_is_better(key)
                        ? rc < -options.wallclock_tolerance
                        : rc > options.wallclock_tolerance)
                 : std::abs(rc) > options.tolerance;
        if (worse) report.regressions.push_back(std::move(delta));
      }
      for (const auto& [key, val] : cur_rows[i]) {
        (void)val;
        if (find_in(base_rows[i], key) == nullptr) {
          report.notes.push_back("bench '" + bench + "' row " +
                                 std::to_string(i) + ": new field '" + key +
                                 "' (not in baseline)");
        }
      }
    }
  }
  for (const std::string& bench : cur.order) {
    if (!options.bench_filter.empty() && bench != options.bench_filter) {
      continue;
    }
    if (base.by_bench.find(bench) == base.by_bench.end()) {
      report.notes.push_back("bench '" + bench +
                             "' is new (not in baseline)");
    }
  }
  if (!options.bench_filter.empty() &&
      base.by_bench.find(options.bench_filter) == base.by_bench.end() &&
      cur.by_bench.find(options.bench_filter) == cur.by_bench.end()) {
    report.mismatches.push_back("bench '" + options.bench_filter +
                                "' (--bench filter) found on neither side");
  }
  return report;
}

CompareReport compare_bench(const std::string& baseline_jsonl,
                            const std::string& current_jsonl,
                            double tolerance) {
  CompareOptions options;
  options.tolerance = tolerance;
  return compare_bench(baseline_jsonl, current_jsonl, options);
}

}  // namespace wsn::obs::analyze
