#include "core/virtual_network.h"

namespace wsn::core {

void VirtualNetwork::deliver(const GridCoord& from, const GridCoord& to,
                             std::any payload, double size_units,
                             std::uint64_t flow) {
  const std::size_t idx = grid_.index_of(to);
  if (down_[idx]) {
    // The destination process crashed while the message was in flight; the
    // radio work already happened (energy stays charged), only the handler
    // is suppressed. The "drop" event keeps the flow explicable offline.
    counters_.add(Counter::kRxDead);
    if (obs::tracer().enabled(obs::Category::kVirtual)) {
      obs::tracer().emit(
          {sim_.now(), static_cast<std::int64_t>(idx), obs::Category::kVirtual,
           'i', "drop", flow,
           {{"from", static_cast<std::uint64_t>(grid_.index_of(from))},
            {"why", std::string("dead")}}});
    }
    return;
  }
  counters_.add(Counter::kDelivered);
  if (obs::tracer().enabled(obs::Category::kVirtual)) {
    obs::tracer().emit(
        {sim_.now(), static_cast<std::int64_t>(idx), obs::Category::kVirtual,
         'i', "deliver", flow,
         {{"src", static_cast<std::uint64_t>(grid_.index_of(from))},
          {"size", size_units}}});
  }
  if (receivers_[idx]) {
    receivers_[idx](VirtualMessage{from, size_units, std::move(payload)});
  } else {
    counters_.add(Counter::kNoReceiver);
  }
}

void VirtualNetwork::forward_serialized(
    std::shared_ptr<std::vector<GridCoord>> path, std::size_t hop,
    std::shared_ptr<std::any> payload, double size_units, std::uint64_t flow) {
  // The packet sits at path[hop] and must cross to path[hop+1].
  const GridCoord& here = (*path)[hop];
  const std::size_t here_idx = grid_.index_of(here);
  const sim::Time now = sim_.now();
  const sim::Time depart =
      std::max(now, tx_busy_until_[here_idx]) + cost_.hop_latency(size_units);
  tx_busy_until_[here_idx] = depart;
  if (depart > now + cost_.hop_latency(size_units)) {
    counters_.add(Counter::kQueued);
  }
  if (obs::tracer().enabled(obs::Category::kVirtual)) {
    // One relay span: `wait` is pure queueing delay behind the relay's
    // transmitter; summing waits over a flow explains exactly how far the
    // measured latency exceeds hops x hop_latency.
    obs::tracer().emit(
        {now, static_cast<std::int64_t>(here_idx), obs::Category::kVirtual,
         'i', "hop", flow,
         {{"hop", static_cast<std::uint64_t>(hop)},
          {"next",
           static_cast<std::uint64_t>(grid_.index_of((*path)[hop + 1]))},
          {"depart", depart},
          {"wait", depart - now - cost_.hop_latency(size_units)},
          {"size", size_units}}});
  }

  sim_.schedule_at(depart, [this, path, hop, payload, size_units, flow]() {
    const std::size_t next = hop + 1;
    if (next + 1 == path->size()) {
      deliver(path->front(), path->back(), std::move(*payload), size_units,
              flow);
    } else {
      forward_serialized(path, next, payload, size_units, flow);
    }
  });
}

void VirtualNetwork::send(const GridCoord& from, const GridCoord& to,
                          std::any payload, double size_units) {
  if (down_[grid_.index_of(from)]) {
    // A crashed process transmits nothing: no energy, no trace, no flow.
    counters_.add(Counter::kTxDead);
    return;
  }
  counters_.add(Counter::kSend);
  const std::uint32_t hops = manhattan(from, to);
  total_hops_ += hops;

  auto& tr = obs::tracer();
  std::uint64_t flow = 0;
  if (tr.enabled(obs::Category::kVirtual)) {
    flow = tr.next_flow();
    tr.emit({sim_.now(), static_cast<std::int64_t>(grid_.index_of(from)),
             obs::Category::kVirtual, 'i', hops == 0 ? "self_send" : "send",
             flow,
             {{"dst", static_cast<std::uint64_t>(grid_.index_of(to))},
              {"hops", static_cast<std::uint64_t>(hops)},
              {"size", size_units}}});
  }

  if (hops == 0) {
    // Self-delivery: no radio involved, no energy, no latency.
    counters_.add(Counter::kSelfSend);
    sim_.post([this, from, payload = std::move(payload),
               size_units]() mutable {
      const std::size_t idx = grid_.index_of(from);
      if (receivers_[idx]) {
        receivers_[idx](VirtualMessage{from, size_units, std::move(payload)});
      }
    });
    return;
  }

  // Energy: every hop has one transmitter and one receiver. Endpoints pay
  // one side each; every intermediate relay pays both. Congestion does not
  // change energy, only timing.
  const auto path = grid_.route(from, to);
  ledger_.charge(static_cast<net::NodeId>(grid_.index_of(from)),
                 net::EnergyUse::kTx, cost_.tx_energy(size_units));
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    const auto idx = static_cast<net::NodeId>(grid_.index_of(path[i]));
    ledger_.charge(idx, net::EnergyUse::kRx, cost_.rx_energy(size_units));
    ledger_.charge(idx, net::EnergyUse::kTx, cost_.tx_energy(size_units));
  }
  ledger_.charge(static_cast<net::NodeId>(grid_.index_of(to)),
                 net::EnergyUse::kRx, cost_.rx_energy(size_units));

  if (congestion_ == Congestion::kNodeSerialized) {
    forward_serialized(std::make_shared<std::vector<GridCoord>>(path), 0,
                       std::make_shared<std::any>(std::move(payload)),
                       size_units, flow);
    return;
  }

  if (tr.enabled(obs::Category::kVirtual)) {
    // Contention-free hops are fully determined at send time: relay i
    // transmits at now + i * hop_latency with zero queueing. Emitting the
    // chain here keeps traces path-reconstructable in both congestion
    // modes without scheduling per-hop events the cost model doesn't need.
    const sim::Time now = sim_.now();
    const sim::Time hop_latency = cost_.hop_latency(size_units);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      tr.emit({now + static_cast<double>(i) * hop_latency,
               static_cast<std::int64_t>(grid_.index_of(path[i])),
               obs::Category::kVirtual, 'i', "hop", flow,
               {{"hop", static_cast<std::uint64_t>(i)},
                {"next", static_cast<std::uint64_t>(grid_.index_of(path[i + 1]))},
                {"depart", now + static_cast<double>(i + 1) * hop_latency},
                {"wait", 0.0},
                {"size", size_units}}});
    }
  }

  const sim::Time latency = cost_.path_latency(hops, size_units);
  sim_.schedule_in(
      latency,
      [this, from, to, payload = std::move(payload), size_units,
       flow]() mutable {
        deliver(from, to, std::move(payload), size_units, flow);
      });
}

}  // namespace wsn::core
