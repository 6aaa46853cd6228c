#include "stack.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "app/field.h"
#include "app/topographic.h"
#include "core/primitives.h"
#include "net/deployment.h"
#include "sim/rng.h"

namespace stackbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Runs `fn` and adds its host milliseconds to `ms`.
template <typename Fn>
void timed(double& ms, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// True iff `members` minus `removed` is non-empty and stays connected over
/// radio edges.
bool connected_without(const net::NetworkGraph& graph,
                       std::span<const net::NodeId> members,
                       net::NodeId removed) {
  std::vector<net::NodeId> alive;
  for (const net::NodeId m : members) {
    if (m != removed) alive.push_back(m);
  }
  if (alive.empty()) return false;
  const auto is_alive = [&](net::NodeId v) {
    return std::find(alive.begin(), alive.end(), v) != alive.end();
  };
  std::vector<bool> seen(graph.node_count(), false);
  std::vector<net::NodeId> frontier{alive.front()};
  seen[alive.front()] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const net::NodeId u = frontier.back();
    frontier.pop_back();
    for (const net::NodeId v : graph.neighbors(u)) {
      if (seen[v] || !is_alive(v)) continue;
      seen[v] = true;
      ++reached;
      frontier.push_back(v);
    }
  }
  return reached == alive.size();
}

using RegionKey = std::tuple<std::uint64_t, std::int32_t, std::int32_t,
                             std::int32_t, std::int32_t>;

RegionKey key_of(std::uint64_t area, const app::GridBounds& b) {
  return {area, b.row_min, b.col_min, b.row_max, b.col_max};
}

}  // namespace

Stack::Stack(const Shape& shape, std::uint64_t seed) : sim(seed) {
  const net::Rect terrain =
      net::square_terrain(static_cast<double>(shape.grid_side));
  std::vector<net::Point> positions;
  timed(setup.deploy_ms, [&] {
    net::DeploymentConfig cfg;
    cfg.kind = net::DeploymentKind::kOnePerCellPlus;
    cfg.node_count = shape.nodes;
    cfg.terrain = terrain;
    cfg.cells_per_side = shape.grid_side;
    positions = net::deploy(cfg, sim.rng());
  });
  timed(setup.graph_ms, [&] {
    graph = std::make_unique<net::NetworkGraph>(std::move(positions),
                                                shape.range);
    ledger = std::make_unique<net::EnergyLedger>(graph->node_count());
    link = std::make_unique<net::LinkLayer>(
        sim, *graph, net::RadioModel{shape.range, 1.0, 1.0, 1.0},
        net::CpuModel{}, *ledger);
  });
  timed(setup.mapper_ms, [&] {
    mapper = std::make_unique<emulation::CellMapper>(*graph, terrain,
                                                     shape.grid_side);
  });
  timed(setup.topology_emulation_ms, [&] {
    emulation_result = emulation::run_topology_emulation(*link, *mapper, 0.0);
  });
  timed(setup.leader_binding_ms, [&] {
    binding_result = emulation::run_leader_binding(*link, *mapper);
  });
  timed(setup.overlay_ms, [&] {
    overlay = std::make_unique<emulation::OverlayNetwork>(
        *link, *mapper, emulation_result, binding_result);
    arq = std::make_unique<net::ReliableChannel>(*link, net::ReliableConfig{});
    overlay->attach_arq(*arq);
  });
  setup_events = sim.events_processed();
}

bool Stack::healthy() const {
  return mapper->all_cells_occupied() && mapper->all_cells_connected() &&
         binding_result.unique_leaders;
}

bool Stack::reduce_reaches_every_cell() {
  const std::vector<core::GridCoord> cells = overlay->grid().all_coords();
  const std::vector<double> ones(cells.size(), 1.0);
  bool ok = false;
  core::group_reduce_deadline(
      *overlay, cells, {0, 0}, ones, core::ReduceOp::kSum, 1.0, 1000.0,
      [&ok, n = cells.size()](const core::PartialResult& p) {
        ok = p.complete() && p.value == static_cast<double>(n);
      });
  sim.run();
  return ok;
}

bool Stack::serves_queries() {
  const app::FeatureGrid grid = app::full_grid(overlay->grid().side());
  try {
    return regions_match(app::run_topographic_query(*overlay, grid).regions,
                         app::label_regions(grid));
  } catch (const std::runtime_error&) {
    return false;  // the round did not complete
  }
}

emulation::FailureDetectorConfig soak_detector_config() {
  emulation::FailureDetectorConfig cfg;
  cfg.membership = true;
  cfg.audit_period = 15.0;
  return cfg;
}

sim::Time detection_bound(const emulation::FailureDetectorConfig& cfg) {
  return 2.5 * cfg.lease_duration + 1.5 * cfg.election_timeout + 10.0;
}

void Stack::start_detector() {
  timed(setup.detector_start_ms, [&] {
    detector = std::make_unique<emulation::FailureDetector>(
        *overlay, soak_detector_config());
    detector->start();
  });
}

std::unique_ptr<Stack> build_checked_stack(
    const Shape& shape, std::uint64_t seed, bool queries,
    std::uint64_t& rejected, const std::function<void()>& before_draw) {
  rejected = 0;
  for (std::uint64_t retry = 0; retry < 16; ++retry) {
    before_draw();
    auto stack = std::make_unique<Stack>(shape, seed + 1000003 * retry);
    if (stack->healthy() && stack->reduce_reaches_every_cell() &&
        (!queries || stack->serves_queries())) {
      return stack;
    }
    ++rejected;
  }
  return nullptr;
}

std::vector<QueryInput> make_queries(std::size_t grid_side, std::uint64_t seed,
                                     std::size_t count) {
  std::vector<QueryInput> queries;
  queries.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    app::FeatureGrid grid = app::threshold_sample(
        app::value_noise_field(seed + k), grid_side, 0.5);
    app::Labeling reference = app::label_regions(grid);
    queries.push_back({std::move(grid), std::move(reference)});
  }
  return queries;
}

bool regions_match(const std::vector<app::RegionInfo>& got,
                   const app::Labeling& reference) {
  std::vector<RegionKey> a;
  std::vector<RegionKey> b;
  for (const app::RegionInfo& r : got) a.push_back(key_of(r.area, r.bounds));
  for (const app::Region& r : reference.regions) {
    b.push_back(key_of(r.area, r.bounds));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

SoakPlan make_soak_plan(const Stack& stack, std::uint64_t seed,
                        sim::Time horizon) {
  sim::Rng rng(seed);
  const core::GridTopology& grid = stack.overlay->grid();
  std::vector<bool> hit(grid.node_count(), false);
  hit[grid.index_of({0, 0})] = true;  // the collector cell stays clean
  SoakPlan out;
  std::vector<sim::FaultEvent>& events = out.plan.events;
  const auto fault_time = [&] { return 5.0 + rng.uniform() * horizon * 0.4; };

  // Draws an untouched cell whose members pass `accept`, marks it hit and
  // returns it; {-1,-1} when 64 draws find none.
  const auto pick_cell =
      [&](const std::function<bool(const core::GridCoord&)>& accept) {
        for (int attempt = 0; attempt < 64; ++attempt) {
          const std::size_t ci = rng.below(grid.node_count());
          const core::GridCoord cell = grid.coord_of(ci);
          if (hit[ci] || !accept(cell)) continue;
          hit[ci] = true;
          return cell;
        }
        return core::GridCoord{-1, -1};
      };

  // Every crash recovers within 45 units. A node down longer leaves a
  // routing hole that membership mode's parent watchdog (two silent uplease
  // windows, about 66 units after the crash) mistakes for a vacated cell:
  // it proxy-binds live child cells whose upleases cross the hole, and that
  // churn outlasts the oracle's reconciliation deadline.
  for (int k = 0; k < 2; ++k) {  // leader crashes
    net::NodeId leader = net::kNoNode;
    const core::GridCoord cell = pick_cell([&](const core::GridCoord& c) {
      leader = stack.overlay->bound_node(c);
      const auto members = stack.mapper->members(c);
      // Two survivors at least: a lone one would orphan and be adopted by
      // a neighboring cell instead of electing a successor.
      return leader != net::kNoNode && members.size() >= 3 &&
             connected_without(*stack.graph, members, leader);
    });
    if (cell.row < 0) continue;
    sim::FaultEvent crash;
    crash.at = fault_time();
    crash.kind = sim::FaultKind::kCrash;
    crash.node = leader;
    events.push_back(crash);
    out.leader_crashes.push_back({cell, crash.at});
    // Back after the successor's claim (about 25 units), so exactly one
    // claim follows.
    sim::FaultEvent rec;
    rec.at = crash.at + 40.0 + rng.uniform() * 5.0;
    rec.kind = sim::FaultKind::kRecover;
    rec.node = leader;
    events.push_back(rec);
  }
  for (int k = 0; k < 2; ++k) {  // member crashes
    net::NodeId victim = net::kNoNode;
    const core::GridCoord cell = pick_cell([&](const core::GridCoord& c) {
      const auto members = stack.mapper->members(c);
      if (members.size() < 3) return false;
      victim = members[static_cast<std::size_t>(rng.below(members.size()))];
      return victim != stack.overlay->bound_node(c) &&
             connected_without(*stack.graph, members, victim);
    });
    if (cell.row < 0) continue;
    sim::FaultEvent crash;
    crash.at = fault_time();
    crash.kind = sim::FaultKind::kCrash;
    crash.node = victim;
    events.push_back(crash);
    sim::FaultEvent rec;
    rec.at = crash.at + 20.0 + rng.uniform() * 20.0;
    rec.kind = sim::FaultKind::kRecover;
    rec.node = victim;
    events.push_back(rec);
  }
  sim::FaultEvent burst;
  burst.at = rng.uniform() * horizon * 0.5;
  burst.kind = sim::FaultKind::kLossBurst;
  burst.loss = 0.03 + rng.uniform() * 0.09;
  burst.duration = 20.0 + rng.uniform() * 40.0;
  events.push_back(burst);
  for (int k = 0; k < 2; ++k) {  // membership strikes
    const core::GridCoord cell = pick_cell([&](const core::GridCoord& c) {
      return !stack.mapper->members(c).empty();
    });
    if (cell.row < 0) continue;
    const auto members = stack.mapper->members(cell);
    net::NodeId victim =
        members[static_cast<std::size_t>(rng.below(members.size()))];
    if (rng.chance(0.5)) victim = stack.overlay->bound_node(cell);
    sim::FaultEvent strike;
    strike.at = fault_time();
    strike.kind = sim::FaultKind::kStateCorruption;
    strike.node = victim;
    strike.target = sim::CorruptionTarget::kMembership;
    events.push_back(strike);
  }
  return out;
}

}  // namespace stackbench
