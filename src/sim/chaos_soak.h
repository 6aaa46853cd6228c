// Chaos-soak harness: randomized-but-replayable fault campaigns over the
// full physical stack, each checked against the trace oracle and the
// failure-detection invariants.
//
// Each campaign builds its own emulation::PhysicalStack (seeded deployment,
// emulation, leader binding, overlay) with ARQ and a distributed
// FailureDetector on top, arms a FaultPlan, runs deadline-bounded reduce
// rounds through the faults, lets the detector settle, and then asserts:
//   * every trace invariant (obs/analyze/check.h) holds, energy and ARQ
//     counters checked against a metrics snapshot. The events stream live
//     into an obs::analyze::StreamingChecker as the campaign runs; nothing
//     is captured, so the oracle is whole at every grid size;
//   * no split-brain: at campaign end no two live nodes of one cell both
//     believe they lead it at the same epoch;
//   * every unrecovered leader crash with surviving members produced
//     exactly one leadership claim for that cell, within the detection
//     bound (lease + election + slack).
//
// The plan is either generated from the campaign's own seeded RNG under a
// severity budget (run_campaign) or given (replay, e.g. campaigns/*.json
// through `wsn-chaos --plan`); both take the same path from there. What
// the invariant pass tracks is derived from the plan when it is armed,
// against the bound stack: crashes of bound leaders, set_budget targets,
// and — in membership mode — vacancies (see replay).
//
// The plan generator is constrained to keep the paper's preconditions
// intact — it never removes a node whose loss would disconnect or empty its
// cell's member set (all_cells_occupied / all_cells_connected), except via
// region outages which take entire cells down atomically (an empty cell
// elects nobody; its parent suspects it and resumes it on recovery).
//
// Determinism: campaign k is fully determined by (config, base seed, k) —
// running it twice with `trace_out_dir` set yields byte-identical wtr
// segments (the replay tests assert this) — and replaying its plan JSON
// with the same config and index reproduces it byte for byte, so a
// failing campaign's plan is enough to reproduce it offline with
// `wsn-chaos --plan`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/primitives.h"
#include "emulation/failure_detector.h"
#include "net/topology_factory.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"

namespace wsn::sim {

/// Audit period the corruption and membership soaks give the detector when
/// its config leaves audit_period at 0. Their stabilization bounds are
/// multiples of it.
inline constexpr Time kSoakAuditPeriod = 15.0;

struct ChaosSoakConfig {
  // Stack shape (small enough that 25 campaigns stay cheap under ASan).
  std::size_t grid_side = 4;
  std::size_t node_count = 60;
  /// Base seed; campaign k derives everything from `seed + k`.
  std::uint64_t seed = 20260805;
  /// Deadline-bounded reduce rounds run while faults fire.
  std::size_t rounds = 2;
  /// Plan-generator spending cap: leader crash 1.5, member crash 0.75,
  /// loss burst ~ loss*duration/5, region outage 0.75/cell.
  double severity_budget = 4.0;
  /// When non-empty, each campaign streams its trace to
  /// `<trace_out_dir>/campaign_<index>` as wtr segments (obs/stream_sink.h),
  /// the only capture a campaign makes. A sink failure is a finding.
  std::string trace_out_dir;
  emulation::FailureDetectorConfig detector;

  /// Depletion mode: the generator additionally gives a few cells' bound
  /// leaders finite batteries (kSetBudget with a fixed energy headroom
  /// left), a DepletionMonitor turns the crossings into deaths, and the
  /// detector runs with proactive handoff at 60% of the headroom. The
  /// trace oracle's depletion invariants then bite, and the invariant pass
  /// also asserts that every budgeted leader hands off (planned claim,
  /// old_leader == it) strictly before its battery dies, and that its cell
  /// never split-brains.
  bool depletion = false;

  /// Node-placement shape (net/topology_factory.h). kGrid reproduces the
  /// classic kOnePerCellPlus deployment byte-for-byte; ring/line/mesh/
  /// clique diversify cell adjacency and flood fan-out so the detector's
  /// invariants are soaked across structurally different networks.
  net::TopologyKind topology = net::TopologyKind::kGrid;

  /// Corruption mode: the generator emits *only* state_corruption events
  /// (seeded victim, seeded target profile), the detector runs with
  /// self-stabilization audits on (kSoakAuditPeriod, applied when the
  /// detector config leaves audit_period 0), settle extends by the
  /// stabilization bound, and the oracle additionally asserts the trace's
  /// self-stabilization invariant, full per-cell end-state agreement
  /// (unconverged_cells), and strictly increasing claim epochs per cell.
  bool corruption = false;
  std::size_t corruption_events = 3;

  /// Membership mode: cell beliefs and leader rosters become live protocol
  /// state (detector.membership, audits on). The generator emits
  /// membership-target state_corruption strikes (defected beliefs,
  /// scrambled rosters) plus *vacancy* scenarios — every member of a
  /// victim cell except one non-leader follower crashes at the same
  /// instant, so the survivor orphans over a silent cell, must be adopted
  /// by the nearest reachable neighboring cell, and the vacated cell must
  /// be re-bound to a live proxy leader. The oracle then additionally
  /// asserts the trace's self-stabilization and membership invariants,
  /// per-cell end-state agreement, zero
  /// membership violations at settle (no dark cells, beliefs and rosters
  /// inverse-consistent), and one adoption per planned vacancy within the
  /// extended stabilization bound. The healthy-deployment precheck keeps
  /// all_cells_connected, unique_leaders, and an occupied collector cell
  /// but stops rejecting unoccupied cells — adoption is expected to
  /// restore coverage, so vacancy-at-start is a scenario, not a bad draw.
  bool membership = false;
  std::size_t membership_events = 3;  // membership corruption strikes
};

struct ChaosCampaignResult {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::string plan_json;              // FaultPlan::to_json of the campaign
  std::vector<std::string> findings;  // empty == campaign passed
  // Stats for reporting / the detection-latency bench.
  std::size_t events = 0;  // trace events the oracle checked
  std::size_t claims = 0;
  std::size_t leader_crashes = 0;
  std::size_t split_brains = 0;
  std::size_t depletions = 0;        // nodes whose battery ran out
  std::size_t planned_handoffs = 0;  // claims committed via proactive handoff
  std::uint64_t stale_rejected = 0;
  double max_detection_latency = 0.0;  // over tracked leader crashes; 0 if none
  std::string topology;                // deployment shape the campaign ran on
  std::size_t corruptions = 0;         // state_corruption events planned
  /// Worst corruption-to-last-churn latency (corruption mode): for each
  /// fd.corrupt at t, the last fd churn event in (t, t+bound]; 0 when a
  /// strike caused no churn at all (a benign scramble).
  double max_reconverge_latency = 0.0;
  /// Unhealthy stack draws discarded by the seed-retry loop before this
  /// campaign's deployment stuck (also surfaced as the soak.seeds_rejected
  /// gauge, so soak determinism stays auditable).
  std::uint64_t seeds_rejected = 0;
  std::size_t adoptions = 0;    // orphan adoptions committed (membership)
  std::size_t adopt_binds = 0;  // vacated cells re-bound to a proxy leader
  /// Worst vacancy-to-adoption latency over planned vacancies (membership
  /// mode); 0 when the plan carried none.
  double max_adoption_latency = 0.0;
  /// Kernel events dispatched and final simulated time, summed over every
  /// stack the campaign built, rejected deployment draws included.
  std::uint64_t sim_events = 0;
  Time sim_time = 0.0;
  /// With trace_out_dir set: the wtr capture was written in full.
  bool trace_written = false;
  /// Each reduce round's outcome, in order; fewer than `rounds` entries
  /// when a round never closed.
  std::vector<core::PartialResult> rounds;
  /// The injector's and then the detector's non-zero counters at campaign
  /// end, each in name order (sim::CounterSet::all()).
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  bool ok() const { return findings.empty(); }
};

class ChaosSoak {
 public:
  explicit ChaosSoak(ChaosSoakConfig cfg = {}) : cfg_(cfg) {}

  /// Upper bound on crash -> fd.claim latency asserted per campaign:
  /// worst-case remaining lease, the electing-grace re-arm, the staggered
  /// election close, plus propagation slack.
  Time detection_bound() const;

  /// Runs campaign `index` from scratch (fresh stack, fresh oracle) on a
  /// plan generated from its seed.
  ChaosCampaignResult run_campaign(std::size_t index) const;

  /// Runs campaign `index` exactly as run_campaign does — same stack seed,
  /// mode flags and schedule — but arms `plan` instead of generating one.
  /// The invariant pass tracks what the plan does to the bound stack: each
  /// crash of a cell's bound leader (by node or by cell) outside membership
  /// mode, each set_budget target (a cell resolves to its bound leader),
  /// and, in membership mode, each vacancy — a set of crashes at one
  /// instant that leaves exactly one member of a cell, the survivor.
  /// Throws FaultInjector::arm's line-numbered error, before the campaign
  /// runs, if the plan targets a node or cell outside the stack.
  ChaosCampaignResult replay(std::size_t index, const FaultPlan& plan) const;

 private:
  /// The one campaign path; generates the plan when `plan` is null.
  ChaosCampaignResult run(std::size_t index, const FaultPlan* plan) const;

  ChaosSoakConfig cfg_;
};

}  // namespace wsn::sim
