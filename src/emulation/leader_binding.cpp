#include "emulation/leader_binding.h"

#include <memory>
#include <utility>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace wsn::emulation {

double binding_score(net::NodeId id, const CellMapper& mapper,
                     BindingMetric metric, const net::EnergyLedger& ledger) {
  switch (metric) {
    case BindingMetric::kDistanceToCenter:
      return mapper.distance_to_center(id);
    case BindingMetric::kResidualEnergy:
      // Minimizing the negated residual elects the most-charged node.
      return -ledger.remaining(id);
  }
  return 0.0;
}

namespace {

/// Election key: (score, id), minimized lexicographically. Lower score wins;
/// node id breaks exact ties deterministically.
struct Key {
  double score;
  net::NodeId id;

  bool operator<(const Key& o) const {
    if (score != o.score) return score < o.score;
    return id < o.id;
  }
};

struct DeltaMsg {
  net::NodeId sender;
  Key best;
};

constexpr double kDeltaMsgUnits = 1.0;

struct ElectionState {
  std::vector<Key> best;           // best key heard so far, per node
  std::vector<bool> ldr;           // paper's ldr flag
  std::vector<bool> pending;       // broadcast scheduled
  std::uint64_t broadcasts = 0;
  std::uint64_t suppressed = 0;
};

}  // namespace

namespace {

/// Shared election engine: only nodes for which `participates` holds start
/// broadcasting (all live nodes still relay/suppress per the rules); cells
/// outside `cell_in_scope` keep kNoNode in the result.
BindingResult run_election(net::LinkLayer& link, const CellMapper& mapper,
                           BindingMetric metric, double jitter,
                           const std::vector<bool>& participates) {
  auto& sim = link.simulator();
  const auto& graph = link.graph();
  const std::size_t n = graph.node_count();
  const std::size_t m = mapper.grid_side();

  auto state = std::make_shared<ElectionState>();
  state->best.reserve(n);
  for (net::NodeId i = 0; i < n; ++i) {
    state->best.push_back(
        Key{binding_score(i, mapper, metric, link.ledger()), i});
  }
  state->ldr.assign(n, true);
  state->pending.assign(n, false);

  auto schedule_broadcast = [state, &link](net::NodeId i) {
    if (state->pending[i]) return;
    state->pending[i] = true;
    link.simulator().post([state, &link, i]() {
      state->pending[i] = false;
      ++state->broadcasts;
      link.broadcast(i, DeltaMsg{i, state->best[i]}, kDeltaMsgUnits);
    });
  };

  for (net::NodeId i = 0; i < n; ++i) {
    const Key own{binding_score(i, mapper, metric, link.ledger()), i};
    link.set_receiver(i, [state, &mapper, schedule_broadcast, own,
                          i](const net::Packet& pkt) {
      const auto msg = std::any_cast<DeltaMsg>(pkt.payload);
      if (mapper.cell_of(msg.sender) != mapper.cell_of(i)) {
        ++state->suppressed;  // crossed one boundary; go no further
        return;
      }
      if (msg.best < own) state->ldr[i] = false;
      if (msg.best < state->best[i]) {
        state->best[i] = msg.best;
        schedule_broadcast(i);  // flood the smaller value onward
      }
    });
  }

  for (net::NodeId i = 0; i < n; ++i) {
    if (!participates[i] || link.is_down(i)) continue;
    const double delay = jitter > 0 ? sim.rng().uniform(0.0, jitter) : 0.0;
    sim.schedule_in(delay, [schedule_broadcast, i]() { schedule_broadcast(i); });
  }

  sim.run();

  BindingResult result;
  result.leaders.assign(m * m, net::kNoNode);
  result.broadcasts = state->broadcasts;
  result.suppressed = state->suppressed;
  result.converged_at = sim.now();
  for (net::NodeId i = 0; i < n; ++i) {
    if (!state->ldr[i] || !participates[i] || link.is_down(i)) continue;
    const core::GridCoord cell = mapper.cell_of(i);
    const std::size_t idx = static_cast<std::size_t>(cell.row) * m +
                            static_cast<std::size_t>(cell.col);
    if (result.leaders[idx] != net::kNoNode) result.unique_leaders = false;
    result.leaders[idx] = i;
    if (obs::tracer().enabled(obs::Category::kProtocol)) {
      obs::tracer().emit({sim.now(), static_cast<std::int64_t>(i),
                          obs::Category::kProtocol, 'i', "binding.elected", 0,
                          {{"row", static_cast<std::int64_t>(cell.row)},
                           {"col", static_cast<std::int64_t>(cell.col)}}});
    }
  }
  if (obs::tracer().enabled(obs::Category::kProtocol)) {
    obs::tracer().emit({sim.now(), -1, obs::Category::kProtocol, 'i',
                        "binding.converged", 0,
                        {{"broadcasts", result.broadcasts},
                         {"suppressed", result.suppressed},
                         {"unique",
                          static_cast<std::uint64_t>(
                              result.unique_leaders ? 1 : 0)}}});
  }
  for (net::NodeId i = 0; i < n; ++i) link.set_receiver(i, nullptr);
  return result;
}

}  // namespace

BindingResult run_leader_binding(net::LinkLayer& link, const CellMapper& mapper,
                                 BindingMetric metric, double jitter) {
  obs::ProfSpan prof(obs::ProfCat::kBinding);
  std::vector<bool> everyone(link.graph().node_count(), true);
  return run_election(link, mapper, metric, jitter, everyone);
}

BindingResult run_binding_repair(net::LinkLayer& link, const CellMapper& mapper,
                                 const BindingResult& previous,
                                 BindingMetric metric, double jitter) {
  const std::size_t m = mapper.grid_side();
  // Scope: members of cells whose bound leader is gone.
  std::vector<bool> participates(link.graph().node_count(), false);
  std::vector<bool> affected(m * m, false);
  for (std::size_t idx = 0; idx < previous.leaders.size(); ++idx) {
    const net::NodeId leader = previous.leaders[idx];
    if (leader == net::kNoNode || link.is_down(leader)) {
      affected[idx] = true;
      const core::GridCoord cell{static_cast<std::int32_t>(idx / m),
                                 static_cast<std::int32_t>(idx % m)};
      for (net::NodeId member : mapper.members(cell)) {
        participates[member] = true;
      }
    }
  }
  BindingResult repaired =
      run_election(link, mapper, metric, jitter, participates);
  // Healthy cells keep their previous leader.
  for (std::size_t idx = 0; idx < previous.leaders.size(); ++idx) {
    if (!affected[idx]) repaired.leaders[idx] = previous.leaders[idx];
  }
  return repaired;
}

std::vector<net::NodeId> oracle_leaders(const CellMapper& mapper,
                                        BindingMetric metric,
                                        const net::EnergyLedger& ledger,
                                        const net::LinkLayer* link) {
  const std::size_t m = mapper.grid_side();
  std::vector<net::NodeId> leaders(m * m, net::kNoNode);
  std::vector<Key> best(m * m, Key{0.0, net::kNoNode});
  for (net::NodeId i = 0; i < mapper.graph().node_count(); ++i) {
    if (link != nullptr && link->is_down(i)) continue;
    const core::GridCoord cell = mapper.cell_of(i);
    const std::size_t idx = static_cast<std::size_t>(cell.row) * m +
                            static_cast<std::size_t>(cell.col);
    const Key k{binding_score(i, mapper, metric, ledger), i};
    if (leaders[idx] == net::kNoNode || k < best[idx]) {
      leaders[idx] = i;
      best[idx] = k;
    }
  }
  return leaders;
}

}  // namespace wsn::emulation
