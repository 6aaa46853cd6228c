#include "obs/analyze/check.h"

#include "obs/analyze/energy.h"
#include "obs/json.h"

namespace wsn::obs::analyze {

CheckReport check_capture(const JsonValue& metrics_snapshot) {
  CheckReport report;
  auto count_of = [&](const char* key) -> std::optional<std::uint64_t> {
    const JsonValue* v = metrics_snapshot.find(key);
    if (v == nullptr) return std::nullopt;
    return snapshot_count(*v, key, report.issues);
  };
  const auto dropped = count_of("trace.dropped");
  const auto captured = count_of("trace.captured");
  if (dropped.value_or(0) > 0) {
    std::string issue = "capture: trace sink dropped " +
                        std::to_string(*dropped) + " event(s)";
    if (captured) issue += " (holding " + std::to_string(*captured) + ")";
    issue += "; the trace is a suffix of the run, not the whole run";
    report.issues.push_back(std::move(issue));
  }
  return report;
}

std::optional<std::uint64_t> snapshot_count(const JsonValue& v,
                                            const std::string& key,
                                            std::vector<std::string>& issues) {
  AttrValue number;
  if (const auto* u = std::get_if<std::uint64_t>(&v.v)) {
    number = *u;
  } else if (const auto* i = std::get_if<std::int64_t>(&v.v)) {
    number = *i;
  } else if (const auto* d = std::get_if<double>(&v.v)) {
    number = *d;
  } else {
    issues.push_back("metrics: " + key + " is not a number");
    return std::nullopt;
  }
  if (const auto n = int_value<std::uint64_t>(number)) return n;
  std::string text;
  json_append_value(text, number);
  issues.push_back("metrics: " + key + " " + text +
                   " is not a count (a non-negative integer below 2^64)");
  return std::nullopt;
}

}  // namespace wsn::obs::analyze
