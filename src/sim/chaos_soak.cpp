#include "sim/chaos_soak.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_topology.h"
#include "core/primitives.h"
#include "emulation/physical_stack.h"
#include "obs/analyze/incremental.h"
#include "obs/analyze/json_reader.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/stream_sink.h"
#include "obs/trace.h"
#include "sim/depletion_monitor.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"

namespace wsn::sim {

namespace {

constexpr double kRange = 1.3;     // radio range, in cell sides
constexpr Time kDeadline = 120.0;  // per reduce round
constexpr std::size_t kMaxPlanEvents = 10;
constexpr std::size_t kDepletionTargets = 2;  // leaders given a battery
// Energy a budgeted leader has left at its set_budget tick; see the
// low-water derivation in run_campaign for why the reserve must be large.
constexpr double kDepletionHeadroom = 80.0;
constexpr Time kDepletionGrace = 400.0;  // settle until batteries drain
constexpr std::size_t kMembershipVacancies = 1;  // cells vacated per plan

/// The paper-precondition precheck for a fresh draw. Membership mode
/// relaxes occupancy: adoption restores coverage of vacant cells, so an
/// unoccupied cell is a scenario rather than a bad draw. The collector cell
/// (0,0) must stay occupied all the same: it is the aggregation root and
/// has no parent to proxy-adopt it.
bool healthy_draw(const emulation::PhysicalStack& stack, bool membership) {
  if (!membership) return stack.healthy();
  return !stack.mapper->members(core::GridCoord{0, 0}).empty() &&
         stack.mapper->all_cells_connected() &&
         stack.binding_result.unique_leaders;
}

/// A planned fault the invariant pass accounts for: a crashed or budgeted
/// leader, or a vacated cell's survivor.
struct Tracked {
  core::GridCoord cell{-1, -1};
  net::NodeId node = net::kNoNode;
  Time at = 0.0;  // plan-relative
};

/// True iff the cell's members stay connected over radio edges once
/// `removed` is taken out: the generator's guard for the paper's
/// all_cells_connected precondition.
bool stays_connected(const net::NetworkGraph& graph,
                     std::span<const net::NodeId> members,
                     net::NodeId removed) {
  std::vector<net::NodeId> alive;
  for (const net::NodeId m : members) {
    if (m != removed) alive.push_back(m);
  }
  return !alive.empty() && graph.induced_connected(alive);
}

/// What the invariant pass tracks, derived from the plan (see track()).
struct TrackedFaults {
  std::vector<Tracked> leader_crashes;
  /// Leaders given a finite battery; `at` is the set_budget time, the death
  /// lands wherever the drain takes it.
  std::vector<Tracked> depletions;
  /// Vacated cells (membership mode): `node` is the lone survivor, `at` the
  /// instant every other member crashes. The oracle demands the survivor
  /// adopts into a neighboring cell within the stabilization bound and the
  /// cell ends re-bound to a live proxy.
  std::vector<Tracked> vacancies;
};

/// A campaign's whole trace path. Every event is fed live to the streaming
/// oracle — which also times fd.corrupt strikes against the churn they
/// provoke — and, with a stream directory, written there as wtr segments.
/// Nothing is retained, so memory is bounded by live protocol state at any
/// grid size.
class OracleSink final : public obs::TraceSink {
 public:
  explicit OracleSink(const std::string& stream_dir) {
    if (stream_dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(stream_dir, ec);
    obs::StreamSinkConfig scfg;
    scfg.directory = stream_dir;
    scfg.format = obs::TraceFormat::kWtr;
    stream_ = std::make_unique<obs::StreamingFileSink>(scfg);
  }

  void accept(obs::TraceEvent ev) override {
    {
      obs::ProfSpan span(obs::ProfCat::kSink);
      checker_.feed(ev);
    }
    if (stream_ != nullptr) stream_->accept(std::move(ev));
  }

  obs::StreamingFileSink* stream() { return stream_.get(); }
  obs::analyze::CheckReport finish(const obs::analyze::JsonValue& snapshot) {
    return checker_.finish(&snapshot);
  }

 private:
  obs::analyze::StreamingChecker checker_;
  std::unique_ptr<obs::StreamingFileSink> stream_;
};

/// The campaign's generated plan: drawn from its own RNG (independent of
/// the stack's) against the freshly bound stack. Node and cell targets are
/// resolved to node ids now, so the plan replays without a live binding.
FaultPlan generate_plan(const ChaosSoakConfig& cfg, Time detection_bound,
                        const emulation::PhysicalStack& stack,
                        std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234567);
  const core::GridTopology& grid = stack.overlay->grid();
  const Time horizon =
      static_cast<double>(cfg.rounds) * (kDeadline + 10.0);
  FaultPlan plan;
  std::vector<bool> hit(grid.node_count(), false);
  hit[grid.index_of({0, 0})] = true;  // never target the collector cell
  double budget = cfg.severity_budget;
  if (cfg.corruption) {
    // Corruption-only plans: the soft state of a seeded victim (half the
    // strikes the cell's bound leader, half a random member) is scrambled
    // at fire time along a seeded target profile. Victims are resolved to
    // node ids now so the plan replays without a live binding; the
    // collector cell stays clear so reduce rounds keep closing.
    for (int attempt = 0;
         attempt < 64 && plan.events.size() < cfg.corruption_events;
         ++attempt) {
      const std::size_t ci = rng.below(grid.node_count());
      const core::GridCoord cell = grid.coord_of(ci);
      if (cell.row == 0 && cell.col == 0) continue;  // the collector cell
      const auto members = stack.mapper->members(cell);
      if (members.empty()) continue;
      const net::NodeId leader = stack.overlay->bound_node(cell);
      net::NodeId victim =
          members[static_cast<std::size_t>(rng.below(members.size()))];
      if (rng.chance(0.5) && leader != net::kNoNode) victim = leader;
      FaultEvent ev;
      ev.at = 5.0 + rng.uniform() * horizon * 0.4;
      ev.kind = FaultKind::kStateCorruption;
      ev.node = victim;
      ev.target = static_cast<CorruptionTarget>(rng.below(4));
      plan.events.push_back(ev);
    }
  }
  if (cfg.membership) {
    // Vacancy scenarios: every member of a victim cell except one follower
    // crashes at the same instant. The survivor's lease runs out over a
    // silent cell, its election finds nobody, and the adoption path must
    // move it into the nearest reachable neighboring cell and re-bind the
    // vacated cell to a proxy — tracked so the invariant pass demands
    // exactly that. The survivor is never the bound leader (a surviving
    // leader just keeps serving a cell of one) and must hold a cross-cell
    // radio edge into an untargeted cell, or adoption has nobody to reach;
    // that refuge cell is marked hit so a later vacancy cannot empty it.
    std::size_t vacancies = 0;
    for (int attempt = 0; attempt < 64 && vacancies < kMembershipVacancies;
         ++attempt) {
      const std::size_t ci = rng.below(grid.node_count());
      const core::GridCoord cell = grid.coord_of(ci);
      if (hit[ci] || (cell.row == 0 && cell.col == 0)) continue;
      const auto members = stack.mapper->members(cell);
      const net::NodeId leader = stack.overlay->bound_node(cell);
      if (leader == net::kNoNode || members.size() < 2) continue;
      net::NodeId survivor = net::kNoNode;
      std::size_t refuge = 0;
      for (const net::NodeId m : members) {
        if (m == leader) continue;
        for (const net::NodeId v : stack.graph->neighbors(m)) {
          const core::GridCoord vc = stack.mapper->cell_of(v);
          if (vc == cell || hit[grid.index_of(vc)]) continue;
          survivor = m;
          refuge = grid.index_of(vc);
          break;
        }
        if (survivor != net::kNoNode) break;
      }
      if (survivor == net::kNoNode) continue;
      hit[ci] = true;
      hit[refuge] = true;
      const Time at = 5.0 + rng.uniform() * horizon * 0.3;
      for (const net::NodeId m : members) {
        if (m == survivor) continue;
        FaultEvent crash;
        crash.at = at;
        crash.kind = FaultKind::kCrash;
        crash.node = m;
        plan.events.push_back(crash);
      }
      ++vacancies;
    }
    // Membership strikes: a seeded victim's cell belief is defected to an
    // adjacent cell or its leader's roster is scrambled at fire time
    // (CorruptionTarget::kMembership). Reconciliation — self-heal from
    // position knowledge plus the audit digest round — must pull every one
    // back within the extended stabilization bound. Cells already staged
    // for a vacancy (or sheltering its survivor) stay clear so the
    // adoption oracle is not confounded.
    std::size_t strikes = 0;
    for (int attempt = 0;
         attempt < 64 && strikes < cfg.membership_events; ++attempt) {
      const std::size_t ci = rng.below(grid.node_count());
      const core::GridCoord cell = grid.coord_of(ci);
      if (hit[ci] || (cell.row == 0 && cell.col == 0)) continue;
      const auto members = stack.mapper->members(cell);
      if (members.empty()) continue;
      const net::NodeId leader = stack.overlay->bound_node(cell);
      net::NodeId victim =
          members[static_cast<std::size_t>(rng.below(members.size()))];
      if (rng.chance(0.5) && leader != net::kNoNode) victim = leader;
      FaultEvent ev;
      ev.at = 5.0 + rng.uniform() * horizon * 0.4;
      ev.kind = FaultKind::kStateCorruption;
      ev.node = victim;
      ev.target = CorruptionTarget::kMembership;
      plan.events.push_back(ev);
      ++strikes;
    }
  }
  for (int attempt = 0; !cfg.corruption && !cfg.membership &&
                        attempt < 64 && budget > 0.0 &&
                        plan.events.size() < kMaxPlanEvents;
       ++attempt) {
    const double draw = rng.uniform();
    if (draw < 0.45) {
      // Crash a cell's bound leader (resolved now, so the plan is
      // node-targeted and replayable without a live binding).
      const std::size_t ci = rng.below(grid.node_count());
      const core::GridCoord cell = grid.coord_of(ci);
      if (hit[ci]) continue;
      const net::NodeId leader = stack.overlay->bound_node(cell);
      const auto members = stack.mapper->members(cell);
      if (leader == net::kNoNode || members.size() < 2) continue;
      if (!stays_connected(*stack.graph, members, leader)) continue;
      hit[ci] = true;
      FaultEvent crash;
      crash.at = 5.0 + rng.uniform() * horizon * 0.4;
      crash.kind = FaultKind::kCrash;
      crash.node = leader;
      plan.events.push_back(crash);
      if (rng.chance(0.5)) {
        // Recover well past the detection bound so the claim invariant is
        // unconditional, then let the rejoin/demote path run too.
        FaultEvent rec;
        rec.at = crash.at + detection_bound + 10.0 + rng.uniform() * 20.0;
        rec.kind = FaultKind::kRecover;
        rec.node = leader;
        plan.events.push_back(rec);
      }
      budget -= 1.5;
    } else if (draw < 0.65) {
      // Crash a non-leader member: churn that must NOT depose a leader.
      const std::size_t ci = rng.below(grid.node_count());
      const core::GridCoord cell = grid.coord_of(ci);
      if (hit[ci]) continue;
      const net::NodeId leader = stack.overlay->bound_node(cell);
      const auto members = stack.mapper->members(cell);
      if (members.size() < 3) continue;
      const net::NodeId victim =
          members[static_cast<std::size_t>(rng.below(members.size()))];
      if (victim == leader) continue;
      if (!stays_connected(*stack.graph, members, victim)) continue;
      hit[ci] = true;
      FaultEvent crash;
      crash.at = 5.0 + rng.uniform() * horizon * 0.4;
      crash.kind = FaultKind::kCrash;
      crash.node = victim;
      plan.events.push_back(crash);
      if (rng.chance(0.6)) {
        FaultEvent rec;
        rec.at = crash.at + 20.0 + rng.uniform() * 40.0;
        rec.kind = FaultKind::kRecover;
        rec.node = victim;
        plan.events.push_back(rec);
      }
      budget -= 0.75;
    } else if (draw < 0.85) {
      FaultEvent burst;
      burst.at = rng.uniform() * horizon * 0.5;
      burst.kind = FaultKind::kLossBurst;
      burst.loss = 0.03 + rng.uniform() * 0.09;
      burst.duration = 20.0 + rng.uniform() * 40.0;
      plan.events.push_back(burst);
      budget -= burst.loss * burst.duration / 5.0;
    } else {
      // Region outage: whole cells go dark atomically. An empty cell
      // elects nobody (no split-brain risk); the hierarchy suspects and
      // later resumes it. Keep it clear of the collector and of cells
      // already targeted.
      if (budget < 2.0 || grid.side() < 3) continue;
      const auto side = static_cast<std::int32_t>(grid.side());
      const std::int32_t r0 = 1 + static_cast<std::int32_t>(rng.below(
                                      static_cast<std::uint64_t>(side - 1)));
      const std::int32_t c0 = static_cast<std::int32_t>(
          rng.below(static_cast<std::uint64_t>(side)));
      const std::int32_t r1 = std::min<std::int32_t>(r0 + 1, side - 1);
      const std::int32_t c1 = std::min<std::int32_t>(c0 + 1, side - 1);
      bool clear = true;
      for (std::int32_t r = r0; r <= r1 && clear; ++r) {
        for (std::int32_t c = c0; c <= c1 && clear; ++c) {
          clear = !hit[grid.index_of({r, c})];
        }
      }
      if (!clear) continue;
      std::size_t cells = 0;
      for (std::int32_t r = r0; r <= r1; ++r) {
        for (std::int32_t c = c0; c <= c1; ++c) {
          hit[grid.index_of({r, c})] = true;
          ++cells;
        }
      }
      FaultEvent outage;
      outage.at = rng.uniform() * horizon * 0.3;
      outage.kind = FaultKind::kRegionOutage;
      outage.row0 = r0;
      outage.col0 = c0;
      outage.row1 = r1;
      outage.col1 = c1;
      outage.duration = 30.0 + rng.uniform() * 30.0;
      plan.events.push_back(outage);
      budget -= static_cast<double>(cells) * 0.75;
    }
  }
  if (cfg.depletion) {
    // Give a few untouched cells' leaders a finite battery. Resolved to
    // node ids now (like crashes) so the plan replays without a live
    // binding; "headroom" still resolves against fire-time spend, so the
    // leader has exactly kDepletionHeadroom energy left when the event
    // lands regardless of setup traffic.
    std::size_t budgets = 0;
    for (int attempt = 0; attempt < 64 && budgets < kDepletionTargets;
         ++attempt) {
      const std::size_t ci = rng.below(grid.node_count());
      const core::GridCoord cell = grid.coord_of(ci);
      if (hit[ci]) continue;
      const net::NodeId leader = stack.overlay->bound_node(cell);
      const auto members = stack.mapper->members(cell);
      if (leader == net::kNoNode || members.size() < 2) continue;
      if (!stays_connected(*stack.graph, members, leader)) continue;
      hit[ci] = true;
      FaultEvent ev;
      ev.at = 2.0 + rng.uniform() * 6.0;
      ev.kind = FaultKind::kSetBudget;
      ev.node = leader;
      ev.headroom = kDepletionHeadroom;
      plan.events.push_back(ev);
      ++budgets;
    }
  }
  return plan;
}

/// What the invariant pass tracks in `plan` on the bound stack (the rules
/// are listed at ChaosSoak::replay). Call it once the plan is armed: arming
/// rejects every target outside the stack.
TrackedFaults track(const FaultPlan& plan,
                    const emulation::PhysicalStack& stack, bool membership) {
  const emulation::OverlayNetwork& overlay = *stack.overlay;
  // A cell target resolves to the cell's bound leader, as at fire time.
  const auto target = [&](const FaultEvent& ev) -> Tracked {
    if (ev.cell.row >= 0) return {ev.cell, overlay.bound_node(ev.cell), ev.at};
    return {stack.mapper->cell_of(ev.node), ev.node, ev.at};
  };
  TrackedFaults tracked;
  std::vector<Tracked> crashes;
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind == FaultKind::kSetBudget) {
      tracked.depletions.push_back(target(ev));
    } else if (ev.kind == FaultKind::kCrash) {
      crashes.push_back(target(ev));
    }
  }
  if (!membership) {
    for (const Tracked& c : crashes) {
      if (c.node != net::kNoNode && c.node == overlay.bound_node(c.cell)) {
        tracked.leader_crashes.push_back(c);
      }
    }
    return tracked;
  }
  const auto crashed_at = [&crashes](net::NodeId node, Time at) {
    return std::any_of(crashes.begin(), crashes.end(), [&](const Tracked& c) {
      return c.node == node && c.at == at;
    });
  };
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const Tracked& c = crashes[i];
    // Each (instant, cell) once, at its first crash.
    if (std::any_of(crashes.begin(), crashes.begin() + i,
                    [&c](const Tracked& o) {
                      return o.at == c.at && o.cell == c.cell;
                    })) {
      continue;
    }
    std::size_t left = 0;
    net::NodeId survivor = net::kNoNode;
    for (const net::NodeId m : stack.mapper->members(c.cell)) {
      if (crashed_at(m, c.at)) continue;
      ++left;
      survivor = m;
    }
    if (left == 1) tracked.vacancies.push_back({c.cell, survivor, c.at});
  }
  return tracked;
}

}  // namespace

Time ChaosSoak::detection_bound() const {
  const emulation::FailureDetectorConfig& d = cfg_.detector;
  // Worst case: the crash lands right after a lease renewal (full
  // lease_duration until expiry, and the very first lease is granted at
  // 1.5x), the watchdog defers once for an open election (one more lease),
  // then the staggered election close runs to its 1.25x ceiling; the rest
  // is flood/claim propagation slack.
  return 1.5 * d.lease_duration + d.lease_duration +
         1.5 * d.election_timeout + 10.0;
}

ChaosCampaignResult ChaosSoak::run_campaign(std::size_t index) const {
  return run(index, nullptr);
}

ChaosCampaignResult ChaosSoak::replay(std::size_t index,
                                      const FaultPlan& plan) const {
  return run(index, &plan);
}

ChaosCampaignResult ChaosSoak::run(std::size_t index,
                                   const FaultPlan* given) const {
  ChaosCampaignResult res;
  res.index = index;
  res.seed = cfg_.seed + index;
  res.topology = net::to_string(cfg_.topology);

  const std::string campaign_dir =
      cfg_.trace_out_dir.empty()
          ? std::string()
          : cfg_.trace_out_dir + "/campaign_" + std::to_string(index);
  auto oracle = std::make_unique<OracleSink>(campaign_dir);
  // Destructor order matters: `capture` restores the outer tracer before
  // the oracle it points at is torn down.
  obs::ScopedTrace capture(*oracle, obs::kAllCategories);

  // Deterministic seed-retry: kOnePerCellPlus deployments are almost always
  // healthy, but a pathological draw (an unconnected cell) would void the
  // paper's preconditions — bump the stack seed until healthy. Each draw
  // gets a fresh oracle (and a wiped stream directory): a rejected draw's
  // events would break the accepted stack's energy balance.
  std::unique_ptr<emulation::PhysicalStack> stack;
  for (std::uint64_t retry = 0;; ++retry) {
    if (retry > 0) {
      oracle.reset();  // closes the rejected draw's stream before the wipe
      oracle = std::make_unique<OracleSink>(campaign_dir);
      obs::tracer().set_sink(oracle.get());
    }
    stack = std::make_unique<emulation::PhysicalStack>(
        cfg_.grid_side, cfg_.node_count, kRange, res.seed + 1000003 * retry,
        cfg_.topology);
    if (healthy_draw(*stack, cfg_.membership)) break;
    ++res.seeds_rejected;
    res.sim_events += stack->sim.events_processed();
    res.sim_time += stack->sim.now();
    if (retry > 16) {
      res.findings.push_back("no healthy deployment after 16 seed retries");
      return res;
    }
  }

  stack->enable_arq();
  emulation::FailureDetectorConfig dcfg = cfg_.detector;
  if (cfg_.depletion && dcfg.handoff_low_water <= 0.0) {
    // Retire with 60% of the headroom still in the tank. The reserve must
    // cover the succession itself, not just time: the kElect flood storm
    // costs the initiator ~20 units, the residual check only runs once per
    // heartbeat, and a busy leader burns 1.5-2.5 units/s until the claim
    // commits — so handoff-precedes-death needs most of the headroom left
    // when the probe goes out.
    dcfg.handoff_low_water = kDepletionHeadroom * 0.6;
  }
  if ((cfg_.corruption || cfg_.membership) && dcfg.audit_period <= 0.0) {
    // Self-stabilization needs the periodic reconciliation rounds: without
    // audits a corrupted self-believed leader never hears a view to defer
    // to, and membership's roster repair rides on the audit digests.
    dcfg.audit_period = kSoakAuditPeriod;
  }
  // Membership mode: live beliefs/rosters plus adoption.
  if (cfg_.membership) dcfg.membership = true;
  emulation::FailureDetector detector(*stack->overlay, dcfg);

  obs::MetricsRegistry registry;
  stack->register_metrics(registry);
  detector.register_metrics(registry);
  registry.add_gauge("soak.seeds_rejected", [&res] {
    return static_cast<double>(res.seeds_rejected);
  });

  // ---- Plan: generated from the campaign seed, or given ------------------
  const FaultPlan plan = given != nullptr
                             ? *given
                             : generate_plan(cfg_, detection_bound(), *stack,
                                             res.seed);
  res.plan_json = plan.to_json();
  for (const FaultEvent& ev : plan.events) {
    if (ev.kind == FaultKind::kStateCorruption) ++res.corruptions;
  }

  // ---- Run: arm faults, start the detector, push rounds through ---------
  FaultInjector injector(stack->sim, *stack->link, stack->mapper.get());
  injector.set_leader_lookup(
      [&overlay = *stack->overlay](const core::GridCoord& c) {
        return overlay.bound_node(c);
      });
  injector.set_corruption_applier(
      [&detector](net::NodeId node, CorruptionTarget target) {
        return detector.inject_corruption(node, target);
      });
  injector.register_metrics(registry);
  DepletionMonitor monitor(stack->sim, *stack->link);
  if (cfg_.depletion) {
    monitor.arm();
    monitor.register_metrics(registry);
  }
  const Time arm_time = stack->sim.now();
  injector.arm(plan);  // a target outside the stack throws here
  const TrackedFaults tracked = track(plan, *stack, cfg_.membership);
  res.leader_crashes = tracked.leader_crashes.size();
  detector.start();

  const std::vector<core::GridCoord> all_cells =
      stack->overlay->grid().all_coords();
  const std::vector<double> values(all_cells.size(), 1.0);
  auto partials = std::make_shared<std::vector<core::PartialResult>>();
  for (std::size_t r = 0; r < cfg_.rounds; ++r) {
    const Time round_start = stack->sim.now();
    core::group_reduce_deadline(
        *stack->overlay, all_cells, {0, 0}, values, core::ReduceOp::kSum, 1.0,
        kDeadline,
        [partials](const core::PartialResult& p) { partials->push_back(p); });
    stack->sim.run_until(round_start + kDeadline + 5.0);
  }

  // Let the detector settle past the last outage (down_horizon), plus the
  // detection bound and one uplease so suspected cells resume, then stop
  // and drain everything still in flight so the capture is not truncated.
  const Time settle =
      std::max(stack->sim.now(), arm_time + plan.down_horizon()) +
      detection_bound() + cfg_.detector.uplease_duration +
      (cfg_.depletion ? kDepletionGrace : 0.0) +
      (cfg_.corruption || cfg_.membership ? detector.stabilization_bound()
                                          : 0.0) +
      // Proxy re-binding of a vacated cell can ride the parent path: two
      // consecutive silent uplease windows before the parent adopts it.
      (cfg_.membership ? 2.0 * dcfg.uplease_duration : 0.0);
  stack->sim.run_until(settle);
  const std::vector<core::GridCoord> split = detector.split_brains();
  const std::vector<core::GridCoord> unconverged =
      cfg_.corruption || cfg_.membership ? detector.unconverged_cells()
                                         : std::vector<core::GridCoord>{};
  const std::vector<core::GridCoord> member_violations =
      detector.membership_violations();
  const std::vector<emulation::ClaimRecord> claims = detector.claims();
  detector.stop();
  stack->sim.run();
  res.sim_events += stack->sim.events_processed();
  res.sim_time += stack->sim.now();
  for (const auto& [name, value] : injector.counters().all()) {
    res.counters.emplace_back(name, value);
  }
  for (const auto& [name, value] : detector.counters().all()) {
    res.counters.emplace_back(name, value);
  }

  // ---- Invariants --------------------------------------------------------
  auto finding = [&res](std::string msg) {
    res.findings.push_back(std::move(msg));
  };
  if (obs::StreamingFileSink* stream = oracle->stream(); stream != nullptr) {
    res.trace_written = stream->close();
    if (!res.trace_written) {
      finding("streaming trace capture failed: " + stream->error());
    }
  }

  // The trace oracle: structure, energy and ARQ counters against the
  // snapshot, failure detection, depletion, and — vacuous unless the plan
  // carried strikes or vacancies — self-stabilization and membership.
  std::ostringstream snap;
  registry.write_json(snap);
  const obs::analyze::CheckReport report =
      oracle->finish(obs::analyze::parse_json(snap.str()));
  res.events = report.events_seen;
  for (const std::string& issue : report.issues) {
    finding("trace oracle: " + issue);
  }
  if (cfg_.corruption || cfg_.membership) {
    // Split-brain is asserted below; here, end-state agreement and the
    // worst corruption-to-quiet latency for reporting and the benches.
    for (const core::GridCoord& c : unconverged) {
      finding("cell (" + std::to_string(c.row) + "," + std::to_string(c.col) +
              ") never re-converged: live members disagree on (leader, "
              "epoch) or the agreed leader is not serving");
    }
    res.max_reconverge_latency = report.max_reconverge_latency;
  }
  if (cfg_.membership) {
    res.adoptions = detector.adoptions().size();
    res.adopt_binds = static_cast<std::size_t>(detector.adopt_binds());
    // Zero dark cells, beliefs and rosters inverse-consistent: the
    // protocol-restored all_cells_occupied invariant, checked end-state.
    for (const core::GridCoord& c : member_violations) {
      finding("membership violation in cell (" + std::to_string(c.row) +
              "," + std::to_string(c.col) +
              "): dark cell or belief/roster disagreement after settle");
    }
    // Each planned vacancy must have played out: the survivor adopted into
    // a neighboring cell within the stabilization bound, and the vacated
    // cell ended re-bound to a live proxy leader.
    const Time stab = detector.stabilization_bound();
    for (const Tracked& tv : tracked.vacancies) {
      const Time vacated_abs = arm_time + tv.at;
      const std::string tag =
          "vacated cell (" + std::to_string(tv.cell.row) + "," +
          std::to_string(tv.cell.col) + ") survivor " +
          std::to_string(tv.node);
      const emulation::AdoptionRecord* adoption = nullptr;
      for (const emulation::AdoptionRecord& a : detector.adoptions()) {
        if (a.node == tv.node && a.from == tv.cell && a.at >= vacated_abs) {
          adoption = &a;
          break;
        }
      }
      if (adoption == nullptr) {
        finding(tag + ": never adopted into a neighboring cell");
      } else {
        const Time latency = adoption->at - vacated_abs;
        if (latency > stab) {
          finding(tag + ": adoption latency " + std::to_string(latency) +
                  " exceeds stabilization bound " + std::to_string(stab));
        }
        res.max_adoption_latency =
            std::max(res.max_adoption_latency, latency);
      }
      const net::NodeId proxy = stack->overlay->bound_node(tv.cell);
      if (proxy == net::kNoNode || stack->link->is_down(proxy)) {
        finding(tag + ": cell left dark (no live proxy binding)");
      }
    }
  }

  res.split_brains = split.size();
  for (const core::GridCoord& c : split) {
    finding("split-brain in cell (" + std::to_string(c.row) + "," +
            std::to_string(c.col) +
            "): two live self-believed leaders at one epoch");
  }

  res.claims = claims.size();
  const Time bound = detection_bound();
  for (const Tracked& tc : tracked.leader_crashes) {
    const Time crash_abs = arm_time + tc.at;
    std::size_t count = 0;
    Time first = 0.0;
    for (const emulation::ClaimRecord& cl : claims) {
      if (cl.cell.row != tc.cell.row || cl.cell.col != tc.cell.col) continue;
      if (count == 0) first = cl.at;
      ++count;
    }
    const std::string tag =
        "leader crash in cell (" + std::to_string(tc.cell.row) + "," +
        std::to_string(tc.cell.col) + ") at t=" + std::to_string(crash_abs);
    if (count == 0) {
      finding(tag + ": no leadership claim followed");
      continue;
    }
    if (count > 1) {
      finding(tag + ": " + std::to_string(count) +
              " claims for the cell (expected exactly one election)");
    }
    const Time latency = first - crash_abs;
    if (latency < 0.0) {
      finding(tag + ": claim precedes the crash (spurious election)");
    } else if (latency > bound) {
      finding(tag + ": detection latency " + std::to_string(latency) +
              " exceeds bound " + std::to_string(bound));
    }
    res.max_detection_latency = std::max(res.max_detection_latency, latency);
  }

  res.depletions = monitor.deaths().size();
  for (const emulation::ClaimRecord& cl : claims) {
    if (cl.planned) ++res.planned_handoffs;
  }
  for (const Tracked& td : tracked.depletions) {
    const std::string tag = "budgeted leader " + std::to_string(td.node) +
                            " in cell (" + std::to_string(td.cell.row) + "," +
                            std::to_string(td.cell.col) + ")";
    const DepletionRecord* death = nullptr;
    for (const DepletionRecord& d : monitor.deaths()) {
      if (d.node == td.node) death = &d;
    }
    if (death == nullptr) {
      finding(tag + ": battery never ran out before settle (campaign "
                    "proves nothing)");
      continue;
    }
    // The tentpole invariant: with half the headroom reserved below the
    // low-water mark, the succession must commit while the retiring leader
    // is still alive — a planned claim deposing it strictly before its
    // depletion tick.
    bool planned_before_death = false;
    for (const emulation::ClaimRecord& cl : claims) {
      if (cl.cell.row != td.cell.row || cl.cell.col != td.cell.col) continue;
      if (cl.planned && cl.old_leader == td.node && cl.at < death->at) {
        planned_before_death = true;
      }
    }
    if (!planned_before_death) {
      finding(tag + ": no planned handoff preceded its depletion at t=" +
              std::to_string(death->at));
    }
  }

  res.rounds = std::move(*partials);
  if (res.rounds.size() != cfg_.rounds) {
    finding("only " + std::to_string(res.rounds.size()) + " of " +
            std::to_string(cfg_.rounds) + " reduce rounds closed");
  }
  for (const core::PartialResult& p : res.rounds) {
    res.stale_rejected += p.stale_rejected;
  }
  return res;
}

}  // namespace wsn::sim
