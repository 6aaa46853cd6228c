#include "sim/depletion_monitor.h"

#include <algorithm>
#include <cmath>

#include "net/link_layer.h"
#include "obs/trace.h"

namespace wsn::sim {

DepletionMonitor::DepletionMonitor(Simulator& sim, net::LinkLayer& link)
    : sim_(sim), link_(link) {}

DepletionMonitor::~DepletionMonitor() {
  if (armed_) link_.ledger().set_on_depleted({});
}

void DepletionMonitor::arm() {
  if (armed_) return;
  armed_ = true;
  link_.ledger().set_on_depleted(
      [this](net::NodeId node) { on_crossing(node); });
  // Nodes that crossed before the hook existed latched their flag without
  // firing; record their deaths now so no depletion is ever unreported.
  const net::EnergyLedger& ledger = link_.ledger();
  for (std::size_t i = 0; i < ledger.node_count(); ++i) {
    const auto node = static_cast<net::NodeId>(i);
    if (ledger.depleted(node)) on_crossing(node);
  }
}

void DepletionMonitor::on_crossing(net::NodeId node) {
  for (const DepletionRecord& d : deaths_) {
    if (d.node == node) return;  // already recorded by the arm() sweep
  }
  const net::EnergyLedger& ledger = link_.ledger();
  DepletionRecord rec;
  rec.node = node;
  rec.at = sim_.now();
  rec.budget = ledger.budget(node);
  rec.spent = ledger.spent(node);
  deaths_.push_back(rec);
  counters_.add(Counter::kDepleted);
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Category::kReliability)) {
    tr.emit({sim_.now(), static_cast<std::int64_t>(node),
             obs::Category::kReliability, 'i', "energy.depleted", 0,
             {{"budget", rec.budget}, {"spent", rec.spent}}});
  }
  // The death itself: from this tick on the node neither transmits nor
  // receives, and every existing detection/degradation path takes over.
  link_.set_down(node, true);
}

std::size_t DepletionMonitor::alive_count() const {
  const net::EnergyLedger& ledger = link_.ledger();
  std::size_t n = 0;
  for (std::size_t i = 0; i < ledger.node_count(); ++i) {
    const auto node = static_cast<net::NodeId>(i);
    if (!link_.is_down(node) && !ledger.depleted(node)) ++n;
  }
  return n;
}

obs::Histogram DepletionMonitor::residual_histogram(
    std::size_t buckets) const {
  const net::EnergyLedger& ledger = link_.ledger();
  double hi = 0.0;
  for (std::size_t i = 0; i < ledger.node_count(); ++i) {
    const double b = ledger.budget(static_cast<net::NodeId>(i));
    if (std::isfinite(b)) hi = std::max(hi, b);
  }
  obs::Histogram h(0.0, hi > 0.0 ? hi : 1.0, buckets);
  for (std::size_t i = 0; i < ledger.node_count(); ++i) {
    const auto node = static_cast<net::NodeId>(i);
    if (!std::isfinite(ledger.budget(node))) continue;
    h.add(ledger.remaining(node));
  }
  return h;
}

void DepletionMonitor::register_metrics(obs::MetricsRegistry& registry,
                                        const std::string& prefix) const {
  registry.add_counters(prefix + ".counters", &counters_);
  registry.add_gauge(prefix + ".depleted_nodes", [this] {
    return static_cast<double>(deaths_.size());
  });
  registry.add_gauge(prefix + ".alive_nodes", [this] {
    return static_cast<double>(alive_count());
  });
  registry.add_histogram(prefix + ".residual",
                         [this] { return residual_histogram(); });
}

}  // namespace wsn::sim
