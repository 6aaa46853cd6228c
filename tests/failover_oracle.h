// ORACLE failover reference: leader re-binding driven by ARQ liveness
// suspicion plus global knowledge, shared by the fault and failure-detector
// tests.
//
// The distributed path (emulation::FailureDetector) is cross-checked
// against it: its decisions consult state no real node could have —
// LinkLayer::is_down and the EnergyLedger of *other* nodes — so it computes
// the correct answer instantly and for free. Production-shaped recovery is
// the FailureDetector's message-only heartbeat/lease/election protocol,
// which converges to the same winner this oracle picks (same (score, id)
// key).
//
// Installing a FailoverBinder takes over the channel's on_give_up hook. On
// each give-up it (1) routes around the unresponsive hop via
// OverlayNetwork::on_hop_give_up, then (2) checks both frame endpoints: if
// one is a bound leader that is actually down or depleted, the cell is
// re-bound immediately to the minimum (binding_score, id) key among its
// live members — the winner the distributed election and
// emulation::oracle_leaders produce — and the overlay's intra-cell tree is
// rebuilt. A give-up naming a live leader (e.g. during a loss burst) only
// counts `failover.false_suspicion`; no rebind happens.
//
// Deliberate cost-model simplification: the failover decision itself is
// charged no radio energy. Real suspicion would ride on probe traffic; here
// the give-ups already paid for it, and the announcement cost is omitted so
// trace-derived energy stays equal to the ledger.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "emulation/leader_binding.h"
#include "emulation/overlay_network.h"
#include "net/reliable_link.h"
#include "obs/trace.h"
#include "sim/trace.h"

namespace wsn::oracle {

class FailoverBinder {
 public:
  FailoverBinder(net::ReliableChannel& arq, emulation::OverlayNetwork& overlay)
      : overlay_(overlay) {
    arq.set_on_give_up([this](net::NodeId from, net::NodeId to,
                              std::uint64_t, std::uint32_t) {
      counters_.add(Counter::kGiveUpSeen);
      overlay_.on_hop_give_up(from, to);
      // Either endpoint may be the casualty: a dead receiver never acks,
      // and a dead sender's frames go nowhere while its armed timers fire.
      maybe_rebind(to);
      maybe_rebind(from);
    });
  }

  /// Successful re-binds performed so far.
  std::uint64_t failovers() const { return failovers_; }
  const sim::CounterSet& counters() const { return counters_; }

 private:
  enum class Counter : std::uint8_t {
    kFailovers, kFalseSuspicion, kGiveUpSeen, kNoCandidate, kCount
  };
  static constexpr std::string_view kCounterNames[] = {
      "failover.count", "failover.false_suspicion", "failover.give_up_seen",
      "failover.no_candidate"};
  static_assert(sim::counter_table_ok<Counter>(kCounterNames));

  void maybe_rebind(net::NodeId node) {
    const emulation::CellMapper& mapper = overlay_.mapper();
    const core::GridCoord cell = mapper.cell_of(node);
    if (overlay_.bound_node(cell) != node) return;
    net::LinkLayer& link = overlay_.link();
    if (!link.is_down(node) && !link.ledger().depleted(node)) {
      // Suspicion without a confirmed failure (loss burst, congestion):
      // keep the binding, remember we almost pulled the trigger.
      counters_.add(Counter::kFalseSuspicion);
      return;
    }
    net::NodeId winner = net::kNoNode;
    std::pair<double, net::NodeId> best;
    for (const net::NodeId m : mapper.members(cell)) {
      if (link.is_down(m) || link.ledger().depleted(m) ||
          overlay_.is_suspected(m)) {
        continue;
      }
      const std::pair<double, net::NodeId> key{
          emulation::binding_score(
              m, mapper, emulation::BindingMetric::kDistanceToCenter,
              link.ledger()),
          m};
      if (winner == net::kNoNode || key < best) {
        winner = m;
        best = key;
      }
    }
    if (winner == net::kNoNode) {
      counters_.add(Counter::kNoCandidate);
      return;
    }
    overlay_.rebind(cell, winner);
    ++failovers_;
    counters_.add(Counter::kFailovers);
    if (obs::tracer().enabled(obs::Category::kProtocol)) {
      obs::tracer().emit({link.simulator().now(),
                          static_cast<std::int64_t>(winner),
                          obs::Category::kProtocol, 'i', "binding.elected", 0,
                          {{"row", static_cast<std::int64_t>(cell.row)},
                           {"col", static_cast<std::int64_t>(cell.col)},
                           {"old", static_cast<std::uint64_t>(node)},
                           {"winner", static_cast<std::uint64_t>(winner)}}});
    }
  }

  emulation::OverlayNetwork& overlay_;
  std::uint64_t failovers_ = 0;
  sim::CounterSet counters_{kCounterNames};
};

}  // namespace wsn::oracle
