#include "obs/analyze/check.h"

namespace wsn::obs::analyze {

CheckReport check_capture(const JsonValue& metrics_snapshot) {
  CheckReport report;
  const JsonValue* dropped = metrics_snapshot.find("trace.dropped");
  if (dropped == nullptr || !dropped->is_number()) return report;
  if (dropped->number() > 0.0) {
    const JsonValue* captured = metrics_snapshot.find("trace.captured");
    std::string issue =
        "capture: trace sink dropped " +
        std::to_string(static_cast<std::uint64_t>(dropped->number())) +
        " event(s)";
    if (captured != nullptr && captured->is_number()) {
      issue += " (holding " +
               std::to_string(static_cast<std::uint64_t>(captured->number())) +
               ")";
    }
    issue += "; the trace is a suffix of the run, not the whole run";
    report.issues.push_back(std::move(issue));
  }
  return report;
}

}  // namespace wsn::obs::analyze
