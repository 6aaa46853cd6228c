#include "sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/virtual_network.h"
#include "emulation/cell_mapper.h"
#include "net/link_layer.h"
#include "obs/analyze/json_reader.h"
#include "obs/trace.h"

namespace wsn::sim {

namespace {

using obs::analyze::JsonValue;

/// Every plan error names the line of the value at fault: the document's
/// own shape here, one event's in fail_event.
[[noreturn]] void fail_plan(std::size_t line, const std::string& msg) {
  throw std::runtime_error("fault plan line " + std::to_string(line) + ": " +
                           msg);
}

/// `line` is 0 for a plan built in code, which has no lines.
[[noreturn]] void fail_event(std::size_t line, std::size_t index,
                             const std::string& msg) {
  std::string where = "fault plan";
  if (line > 0) where += " line " + std::to_string(line);
  // 1-based for humans: "event #1" is the first element of "events".
  where += ", event #" + std::to_string(index + 1);
  throw std::runtime_error(where + ": " + msg);
}

/// The numeric member `key` of event `i`'s object `obj`, or `fallback`
/// when it is absent; a value of another type names its own line.
double num_field(const JsonValue& obj, const char* key, double fallback,
                 std::size_t i) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    fail_event(v->line, i, std::string("\"") + key + "\" is not a number");
  }
  return v->number();
}

void append_number(std::string& out, double v) {
  char buf[32];
  // The range test comes first: casting a double outside long long's
  // range is undefined.
  if (std::abs(v) < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

std::string number_text(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

/// An integer field in [lo, hi]; anything else would be cast with undefined
/// or surprising results.
std::int32_t int_field(const JsonValue& obj, const char* key, double fallback,
                       double lo, std::size_t line, std::size_t i) {
  const double v = num_field(obj, key, fallback, i);
  constexpr double hi = std::numeric_limits<std::int32_t>::max();
  if (!(v >= lo && v <= hi) || v != std::floor(v)) {
    fail_event(line, i,
               std::string(key) + " " + number_text(v) +
                   " is not an integer in [" + number_text(lo) + ", " +
                   number_text(hi) + "]");
  }
  return static_cast<std::int32_t>(v);
}

/// Reads the "cell" or, failing that, the "node" an event of `kind` targets.
/// A node id is an integer below kNoNode, a cell's row and col are integers
/// >= 0; whether they exist is checked when the plan is armed on a network.
void parse_target(const JsonValue& e, const std::string& kind,
                  std::size_t line, std::size_t i, FaultEvent& ev) {
  if (const JsonValue* cell = e.find("cell")) {
    if (!cell->is_object()) {
      fail_event(cell->line, i, "\"cell\" is not an object");
    }
    if (num_field(*cell, "row", -1.0, i) < 0 ||
        num_field(*cell, "col", -1.0, i) < 0) {
      fail_event(line, i, "cell needs row and col >= 0");
    }
    ev.cell = {int_field(*cell, "row", -1.0, 0.0, line, i),
               int_field(*cell, "col", -1.0, 0.0, line, i)};
    return;
  }
  const double node = num_field(e, "node", -1.0, i);
  if (node < 0) fail_event(line, i, kind + " needs \"node\" or \"cell\"");
  if (!(node < net::kNoNode) || node != std::floor(node)) {
    fail_event(line, i,
               "node " + number_text(node) + " is not an integer below " +
                   std::to_string(net::kNoNode));
  }
  ev.node = static_cast<net::NodeId>(node);
}

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kLossBurst:
      return "loss_burst";
    case FaultKind::kRegionOutage:
      return "region_outage";
    case FaultKind::kSetBudget:
      return "set_budget";
    case FaultKind::kStateCorruption:
      return "state_corruption";
  }
  return "unknown";
}

void trace_fault(Simulator& sim, obs::EventName name, std::int64_t node,
                 const obs::AttrList& attrs) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Category::kReliability)) return;
  tr.emit({sim.now(), node, obs::Category::kReliability, 'i', name, 0, attrs});
}

}  // namespace

FaultPlan FaultPlan::from_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = obs::analyze::parse_json(text);
  } catch (const obs::analyze::JsonError& e) {
    fail_plan(e.line(), e.reason());
  }
  const JsonValue* events = doc.is_object() ? doc.find("events") : nullptr;
  if (events == nullptr || !events->is_array()) {
    fail_plan(events == nullptr ? doc.line : events->line,
              "missing \"events\" array");
  }
  FaultPlan plan;
  for (std::size_t i = 0; i < events->array().size(); ++i) {
    const JsonValue& e = events->array()[i];
    const std::size_t line = e.line;
    if (!e.is_object()) fail_event(line, i, "event is not an object");
    const JsonValue* kind = e.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      fail_event(line, i, "event without a \"kind\"");
    }
    FaultEvent ev;
    ev.line = line;
    ev.at = num_field(e, "at", 0.0, i);
    if (ev.at < 0.0) {
      fail_event(line, i, "negative time " + std::to_string(ev.at));
    }
    const std::string& k = kind->string();
    if (k == "crash" || k == "recover") {
      ev.kind = k == "crash" ? FaultKind::kCrash : FaultKind::kRecover;
      parse_target(e, k, line, i, ev);
    } else if (k == "loss_burst") {
      ev.kind = FaultKind::kLossBurst;
      ev.loss = num_field(e, "loss", 0.0, i);
      ev.duration = num_field(e, "duration", 0.0, i);
      if (ev.loss < 0.0 || ev.loss > 1.0) {
        fail_event(line, i, "loss must be in [0, 1]");
      }
      if (ev.duration < 0.0) {
        fail_event(line, i,
                   "negative duration " + std::to_string(ev.duration));
      }
    } else if (k == "region_outage") {
      ev.kind = FaultKind::kRegionOutage;
      ev.duration = num_field(e, "duration", 0.0, i);
      constexpr double lo = std::numeric_limits<std::int32_t>::min();
      ev.row0 = int_field(e, "row0", 0.0, lo, line, i);
      ev.col0 = int_field(e, "col0", 0.0, lo, line, i);
      ev.row1 = int_field(e, "row1", 0.0, lo, line, i);
      ev.col1 = int_field(e, "col1", 0.0, lo, line, i);
      if (ev.row1 < ev.row0 || ev.col1 < ev.col0) {
        fail_event(line, i, "empty region rectangle");
      }
      if (ev.duration < 0.0) {
        fail_event(line, i,
                   "negative duration " + std::to_string(ev.duration));
      }
    } else if (k == "set_budget") {
      ev.kind = FaultKind::kSetBudget;
      parse_target(e, k, line, i, ev);
      const bool has_budget = e.find("budget") != nullptr;
      const bool has_headroom = e.find("headroom") != nullptr;
      if (has_budget == has_headroom) {
        fail_event(line, i,
                   "set_budget needs exactly one of \"budget\" or "
                   "\"headroom\"");
      }
      if (has_budget) {
        ev.budget = num_field(e, "budget", -1.0, i);
        if (ev.budget < 0.0) {
          fail_event(line, i,
                     "negative budget " + std::to_string(ev.budget));
        }
      } else {
        ev.headroom = num_field(e, "headroom", -1.0, i);
        if (ev.headroom < 0.0) {
          fail_event(line, i,
                     "negative headroom " + std::to_string(ev.headroom));
        }
      }
    } else if (k == "state_corruption") {
      ev.kind = FaultKind::kStateCorruption;
      parse_target(e, k, line, i, ev);
      const JsonValue* target = e.find("target");
      if (target == nullptr || !target->is_string()) {
        fail_event(line, i, "state_corruption needs a \"target\" string");
      }
      if (!parse_corruption_target(target->string(), ev.target)) {
        fail_event(line, i,
                   "unknown corruption target \"" + target->string() +
                       "\" (want epoch/leader/routes/leases/membership)");
      }
    } else {
      fail_event(line, i, "unknown kind \"" + k + "\"");
    }
    plan.events.push_back(ev);
  }
  // Reject a node-targeted crash scheduled while that node is already down
  // from an earlier crash with no recover in between: the second crash would
  // silently no-op at runtime, which always means the plan author got the
  // overlap wrong. Cell-targeted and region events resolve their node sets
  // at fire time, so they can't be checked statically and are skipped here.
  std::vector<std::size_t> order(plan.events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return plan.events[a].at < plan.events[b].at;
  });
  std::map<net::NodeId, bool> down;
  for (const std::size_t i : order) {
    const FaultEvent& ev = plan.events[i];
    if (ev.node == net::kNoNode) continue;
    if (ev.kind == FaultKind::kCrash) {
      if (down[ev.node]) {
        fail_event(ev.line, i,
                   "crash of node " + std::to_string(ev.node) + " at t=" +
                       std::to_string(ev.at) +
                       " overlaps an earlier crash with no recover between");
      }
      down[ev.node] = true;
    } else if (ev.kind == FaultKind::kRecover) {
      down[ev.node] = false;
    }
  }
  return plan;
}

std::string FaultPlan::to_json() const {
  const auto append_target = [](std::string& out, const FaultEvent& ev) {
    if (ev.node != net::kNoNode) {
      out += ", \"node\": " + std::to_string(ev.node);
    } else {
      out += ", \"cell\": {\"row\": " + std::to_string(ev.cell.row) +
             ", \"col\": " + std::to_string(ev.cell.col) + "}";
    }
  };
  std::string out = "{\"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"at\": ";
    append_number(out, ev.at);
    out += ", \"kind\": \"";
    out += kind_name(ev.kind);
    out += "\"";
    switch (ev.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
        append_target(out, ev);
        break;
      case FaultKind::kLossBurst:
        out += ", \"loss\": ";
        append_number(out, ev.loss);
        out += ", \"duration\": ";
        append_number(out, ev.duration);
        break;
      case FaultKind::kRegionOutage:
        out += ", \"row0\": " + std::to_string(ev.row0);
        out += ", \"col0\": " + std::to_string(ev.col0);
        out += ", \"row1\": " + std::to_string(ev.row1);
        out += ", \"col1\": " + std::to_string(ev.col1);
        out += ", \"duration\": ";
        append_number(out, ev.duration);
        break;
      case FaultKind::kSetBudget:
        append_target(out, ev);
        if (ev.budget >= 0.0) {
          out += ", \"budget\": ";
          append_number(out, ev.budget);
        } else {
          out += ", \"headroom\": ";
          append_number(out, ev.headroom);
        }
        break;
      case FaultKind::kStateCorruption:
        append_target(out, ev);
        out += ", \"target\": \"";
        out += to_string(ev.target);
        out += "\"";
        break;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

Time FaultPlan::down_horizon() const {
  Time horizon = 0.0;
  for (const FaultEvent& ev : events) {
    switch (ev.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
      case FaultKind::kSetBudget:
      case FaultKind::kStateCorruption:
        horizon = std::max(horizon, ev.at);
        break;
      case FaultKind::kRegionOutage:
        horizon = std::max(horizon, ev.at + ev.duration);
        break;
      case FaultKind::kLossBurst:
        break;  // links stay up; no outage to wait out
    }
  }
  return horizon;
}

FaultInjector::FaultInjector(Simulator& sim, net::LinkLayer& link,
                             const emulation::CellMapper* mapper)
    : sim_(sim), link_(&link), mapper_(mapper) {}

FaultInjector::FaultInjector(Simulator& sim, core::VirtualNetwork& vnet)
    : sim_(sim), vnet_(&vnet) {}

void FaultInjector::register_metrics(obs::MetricsRegistry& registry,
                                     const std::string& prefix) const {
  registry.add_counters(prefix + ".counters", &counters_);
}

bool FaultInjector::is_node_down(net::NodeId node) const {
  if (link_ != nullptr) return link_->is_down(node);
  return vnet_->is_down(vnet_->grid().coord_of(node));
}

void FaultInjector::apply_down(net::NodeId node, bool down,
                               obs::EventName trace_name) {
  if (link_ != nullptr) {
    link_->set_down(node, down);
  } else {
    vnet_->set_down(vnet_->grid().coord_of(node), down);
  }
  counters_.add(down ? Counter::kCrash : Counter::kRecover);
  trace_fault(sim_, trace_name, static_cast<std::int64_t>(node), {});
}

net::NodeId FaultInjector::resolve_target(const FaultEvent& ev) {
  if (ev.node != net::kNoNode) return ev.node;
  if (!leader_lookup_) {
    throw std::runtime_error(
        "FaultInjector: cell-targeted event without a leader lookup");
  }
  const net::NodeId leader = leader_lookup_(ev.cell);
  if (leader == net::kNoNode) counters_.add(Counter::kUnresolved);
  return leader;
}

void FaultInjector::fire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover: {
      const net::NodeId target = resolve_target(ev);
      if (target == net::kNoNode) return;  // nothing to crash
      apply_down(target, ev.kind == FaultKind::kCrash,
                 ev.kind == FaultKind::kCrash
                     ? obs::EventName("fault.crash")
                     : obs::EventName("fault.recover"));
      return;
    }
    case FaultKind::kSetBudget: {
      const net::NodeId target = resolve_target(ev);
      if (target == net::kNoNode) return;  // nothing to budget
      net::EnergyLedger& ledger =
          link_ != nullptr ? link_->ledger() : vnet_->ledger();
      // "headroom" resolves against the target's spend at this very tick:
      // the node gets exactly that much energy left, however much setup
      // and protocol traffic it already paid for.
      const double budget = ev.budget >= 0.0
                                ? ev.budget
                                : ledger.spent(target) + ev.headroom;
      counters_.add(Counter::kSetBudget);
      trace_fault(sim_, "fault.set_budget",
                  static_cast<std::int64_t>(target),
                  {{"budget", budget}, {"spent", ledger.spent(target)}});
      ledger.set_budget(target, budget);
      return;
    }
    case FaultKind::kStateCorruption: {
      const net::NodeId target = resolve_target(ev);
      if (target == net::kNoNode) return;  // nothing to corrupt
      // Corruption scrambles *soft* state on a live node; a down node has
      // no live state to scramble, and its rejoin path resynchronizes from
      // the network anyway.
      if (is_node_down(target)) {
        counters_.add(Counter::kCorruptDown);
        return;
      }
      if (!corruption_applier_) {
        counters_.add(Counter::kCorruptUnwired);
        return;
      }
      counters_.add(Counter::kCorrupt);
      trace_fault(sim_, "fault.corrupt", static_cast<std::int64_t>(target),
                  {{"target", trace_code(ev.target)}});
      corruption_applier_(target, ev.target);
      return;
    }
    case FaultKind::kLossBurst: {
      if (link_ == nullptr) {
        counters_.add(Counter::kSkipped);  // virtual layer is lossless
        return;
      }
      counters_.add(Counter::kBurst);
      const double prev = link_->loss_probability();
      link_->set_loss_probability(ev.loss);
      trace_fault(sim_, "fault.burst_begin", -1,
                  {{"loss", ev.loss}, {"duration", ev.duration}});
      net::LinkLayer* link = link_;
      Simulator* sim = &sim_;
      sim_.schedule_in(ev.duration, [link, sim, prev]() {
        link->set_loss_probability(prev);
        trace_fault(*sim, "fault.burst_end", -1, {{"loss", prev}});
      });
      return;
    }
    case FaultKind::kRegionOutage: {
      counters_.add(Counter::kOutage);
      trace_fault(sim_, "fault.outage_begin", -1,
                  {{"row0", static_cast<std::int64_t>(ev.row0)},
                   {"col0", static_cast<std::int64_t>(ev.col0)},
                   {"row1", static_cast<std::int64_t>(ev.row1)},
                   {"col1", static_cast<std::int64_t>(ev.col1)},
                   {"duration", ev.duration}});
      // Expand to per-node crash/recover so downstream invariants (no
      // delivery inside a crash window) see uniform fault.crash events.
      auto affected = std::make_shared<std::vector<net::NodeId>>();
      auto in_region = [&](const core::GridCoord& c) {
        return c.row >= ev.row0 && c.row <= ev.row1 && c.col >= ev.col0 &&
               c.col <= ev.col1;
      };
      if (link_ != nullptr) {
        if (mapper_ == nullptr) {
          throw std::runtime_error(
              "FaultInjector: region outage needs a CellMapper");
        }
        for (net::NodeId i = 0; i < link_->graph().node_count(); ++i) {
          if (!link_->is_down(i) && in_region(mapper_->cell_of(i))) {
            affected->push_back(i);
          }
        }
      } else {
        for (std::size_t i = 0; i < vnet_->grid().node_count(); ++i) {
          const core::GridCoord c = vnet_->grid().coord_of(i);
          if (!vnet_->is_down(c) && in_region(c)) {
            affected->push_back(static_cast<net::NodeId>(i));
          }
        }
      }
      for (net::NodeId n : *affected) apply_down(n, true, "fault.crash");
      sim_.schedule_in(ev.duration, [this, affected]() {
        for (net::NodeId n : *affected) apply_down(n, false, "fault.recover");
        trace_fault(sim_, "fault.outage_end", -1, {});
      });
      return;
    }
  }
}

void FaultInjector::check_target(const FaultEvent& ev,
                                 std::size_t index) const {
  if (ev.kind == FaultKind::kLossBurst || ev.kind == FaultKind::kRegionOutage) {
    return;  // untargeted; an outage tests each node's cell as it fires
  }
  const std::string kind = kind_name(ev.kind);
  if (ev.node != net::kNoNode) {
    const std::size_t nodes = link_ != nullptr ? link_->graph().node_count()
                                               : vnet_->grid().node_count();
    if (ev.node >= nodes) {
      fail_event(ev.line, index,
                 kind + " node " + std::to_string(ev.node) +
                     " is not in the network (" + std::to_string(nodes) +
                     " nodes)");
    }
    return;
  }
  if (link_ != nullptr && mapper_ == nullptr) {
    fail_event(ev.line, index, kind + " of a cell needs a CellMapper");
  }
  const std::size_t side =
      link_ != nullptr ? mapper_->grid_side() : vnet_->grid().side();
  const auto in_grid = [side](std::int32_t v) {
    return v >= 0 && static_cast<std::size_t>(v) < side;
  };
  if (!in_grid(ev.cell.row) || !in_grid(ev.cell.col)) {
    const std::string grid = std::to_string(side);
    fail_event(ev.line, index,
               kind + " cell (" + std::to_string(ev.cell.row) + ", " +
                   std::to_string(ev.cell.col) + ") is not in the " + grid +
                   "x" + grid + " grid");
  }
}

void FaultInjector::arm(const FaultPlan& plan) {
  // Nothing is scheduled unless every target exists.
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    check_target(plan.events[i], i);
  }
  // `at` is an offset from the campaign start (arm time): plans are written
  // without knowing how much simulated time stack setup consumed.
  for (const FaultEvent& ev : plan.events) {
    sim_.schedule_in(std::max(ev.at, 0.0), [this, ev]() { fire(ev); });
  }
}

}  // namespace wsn::sim
