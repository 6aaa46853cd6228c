#include "core/virtual_network.h"

namespace wsn::core {

void VirtualNetwork::deliver(std::size_t from, std::size_t to,
                             std::any payload, double size_units,
                             std::uint64_t flow) {
  if (down_[to]) {
    // The destination process crashed while the message was in flight; the
    // radio work already happened (energy stays charged), only the handler
    // is suppressed. The "drop" event keeps the flow explicable offline.
    counters_.add(Counter::kRxDead);
    if (obs::tracer().enabled(obs::Category::kVirtual)) {
      obs::tracer().emit(
          {sim_.now(), static_cast<std::int64_t>(to), obs::Category::kVirtual,
           'i', "drop", flow,
           {{"from", static_cast<std::uint64_t>(from)},
            {"why", obs::AttrCode("dead")}}});
    }
    return;
  }
  counters_.add(Counter::kDelivered);
  if (obs::tracer().enabled(obs::Category::kVirtual)) {
    obs::tracer().emit(
        {sim_.now(), static_cast<std::int64_t>(to), obs::Category::kVirtual,
         'i', "deliver", flow,
         {{"src", static_cast<std::uint64_t>(from)},
          {"size", size_units}}});
  }
  if (receivers_[to]) {
    receivers_[to](
        VirtualMessage{grid_.coord_of(from), size_units, std::move(payload)});
  } else {
    counters_.add(Counter::kNoReceiver);
  }
}

void VirtualNetwork::forward_serialized(std::vector<GridCoord> path,
                                        std::size_t hop, std::any payload,
                                        double size_units, std::uint64_t flow) {
  // The packet sits at path[hop] and must cross to path[hop+1].
  const GridCoord& here = path[hop];
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
          {"next", static_cast<std::uint64_t>(grid_.index_of(path[hop + 1]))},
          {"depart", depart},
          {"wait", depart - now - cost_.hop_latency(size_units)},
          {"size", size_units}}});
  }

  sim_.schedule_at(depart, [this, path = std::move(path), hop,
                            payload = std::move(payload), size_units,
                            flow]() mutable {
    const std::size_t next = hop + 1;
    if (next + 1 == path.size()) {
      deliver(grid_.index_of(path.front()), grid_.index_of(path.back()),
              std::move(payload), size_units, flow);
    } else {
      forward_serialized(std::move(path), next, std::move(payload),
                         size_units, flow);
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
    flow = sim_.next_flow();
    tr.emit({sim_.now(), static_cast<std::int64_t>(grid_.index_of(from)),
             obs::Category::kVirtual, 'i',
             hops == 0 ? obs::EventName("self_send") : obs::EventName("send"),
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

  if (!grid_.contains(from) || !grid_.contains(to)) {
    throw std::invalid_argument("VirtualNetwork::send: endpoint off grid");
  }
  // Energy: every hop has one transmitter and one receiver. Endpoints pay
  // one side each; every intermediate relay pays both, in path order.
  // Congestion does not change energy, only timing.
  const double tx = cost_.tx_energy(size_units);
  const double rx = cost_.rx_energy(size_units);
  GridTopology::walk_route(from, to, [&](const GridCoord& c) {
    const auto idx = static_cast<net::NodeId>(grid_.index_of(c));
    if (c != from) ledger_.charge(idx, net::EnergyUse::kRx, rx);
    if (c != to) ledger_.charge(idx, net::EnergyUse::kTx, tx);
  });

  if (congestion_ == Congestion::kNodeSerialized) {
    forward_serialized(grid_.route(from, to), 0, std::move(payload),
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
    std::size_t i = 0;
    std::size_t here = grid_.index_of(from);
    GridTopology::walk_route(from, to, [&](const GridCoord& c) {
      if (c == from) return;
      const std::size_t next = grid_.index_of(c);
      tr.emit({now + static_cast<double>(i) * hop_latency,
               static_cast<std::int64_t>(here), obs::Category::kVirtual, 'i',
               "hop", flow,
               {{"hop", static_cast<std::uint64_t>(i)},
                {"next", static_cast<std::uint64_t>(next)},
                {"depart", now + static_cast<double>(i + 1) * hop_latency},
                {"wait", 0.0},
                {"size", size_units}}});
      here = next;
      ++i;
    });
  }

  // Cell indices rather than coordinates keep the closure within
  // sim::Callback's in-place buffer.
  const auto src = static_cast<std::uint32_t>(grid_.index_of(from));
  const auto dst = static_cast<std::uint32_t>(grid_.index_of(to));
  const sim::Time latency = cost_.path_latency(hops, size_units);
  sim_.schedule_in(latency, [this, src, dst, payload = std::move(payload),
                             size_units, flow]() mutable {
    deliver(src, dst, std::move(payload), size_units, flow);
  });
}

}  // namespace wsn::core
