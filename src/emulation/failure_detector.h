// Distributed failure detection and in-protocol leader re-election.
//
// Crashed leaders are recovered without global knowledge (LinkLayer::is_down
// or the EnergyLedger of other nodes), which the paper's Section 5 runtime
// denies the nodes: liveness is only ever inferred from the presence or
// absence of messages, every one of which crosses the real LinkLayer
// (through the ReliableChannel when attached), costs energy, and appears in
// traces.
//
// The protocol, per cell:
//
//   * Heartbeat/lease. The bound leader floods a kBeat into its own cell
//     every `heartbeat_period` (unicasts to same-cell neighbors; receivers
//     forward fresh beats on, so one beat reaches the whole connected
//     cell). A follower holding a beat renews its lease for
//     `lease_duration`. Leaders of cells additionally lease *up the
//     hierarchy*: every cell's leader periodically sends a kUpLease,
//     hop-routed over the overlay tables, to the leader of its lowest
//     strict ancestor cell in the GroupHierarchy; the parent tracks a lease
//     per expected child and, when one expires, marks the silent child
//     leader suspected and repairs routes around it.
//
//   * Election. When a follower's lease expires it starts an election for
//     epoch max(known, seen)+1: it floods a kElect carrying its own
//     (score, id) key — the same key the setup election and oracle_leaders
//     minimize — and every live member that hears the flood joins with its
//     own key, so the eventual winner is the minimum key over all live,
//     reachable members: exactly the oracle's answer. Candidates close
//     their election after `election_timeout` plus a score-proportional
//     stagger (the best key closes first); a candidate that closes still
//     holding its own key as the minimum wins: it adopts leadership, bumps
//     the cell's binding epoch, re-binds the overlay (which rebuilds the
//     intra-cell tree and reroutes inter-cell entries around the deposed
//     leader), and floods a kClaim. Losers adopt the claim. A lost claim is
//     repaired by the next lease expiry, which elects at a strictly higher
//     epoch, so stale election state can never deadlock a cell.
//
//   * Proactive handoff. A leader watches its own residual energy (local
//     knowledge: its battery) every beat; when it falls under
//     `handoff_low_water` the leader *solicits a successor* instead of
//     dying in office: it floods a handoff probe — an election for
//     epoch+1 seeded with a sentinel-worst key, so the retiring leader
//     cannot win its own succession — and every live member joins with
//     its (residual energy, binding score, id) key exactly as in a crash
//     election. The best-supplied member claims, re-binds, and the
//     retiring leader gracefully demotes on the claim it itself keeps
//     serving until: a planned transfer costing a handful of frames and
//     zero leaderless time, versus lease-expiry + election after the
//     battery dies mid-round. Elections (planned or not) order candidates
//     by residual energy first, so crash recovery also rotates leadership
//     toward the healthiest member.
//
//   * Rejoin/resync. A recovered follower simply resumes renewing leases
//     from the next beat it hears. A recovered *deposed* leader still
//     beats with its old epoch; the current leader answers stale beats
//     with a kSync carrying the current (leader, epoch), which demotes the
//     returnee. Receipt of any control message from a suspected node is
//     proof of life and clears the overlay suspicion, so false suspicions
//     accumulated during loss bursts or outages heal within about one
//     heartbeat period of the node coming back.
//
// Epochs ("generation numbers on bindings") make rejoin double-count-safe:
// OverlayNetwork::binding_epoch bumps on every rebind, deadline collectives
// stamp contributions with the sender's epoch, and leaders reject stale
// epochs (core/primitives.cpp), so a deposed leader's in-flight
// contribution can never be folded alongside its successor's.
//
// Determinism: all timing derives from the simulator clock and config; the
// only RNG use is the ReliableChannel's retransmit jitter, drawn from the
// simulator's seeded stream. Same seed + same fault plan => byte-identical
// traces (the chaos-soak replay test asserts this).
//
// Observability: control messages are Category::kLink/kReliability traffic
// with flow 0 (uncorrelated background, like ARQ acks); protocol decisions
// emit Category::kReliability "fd.*" events and bump "fd.*" counters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "emulation/leader_binding.h"
#include "emulation/membership_view.h"
#include "emulation/overlay_network.h"
#include "obs/metrics_registry.h"
#include "sim/fault_plan.h"
#include "sim/trace.h"

namespace wsn::emulation {

/// Interval between a cell leader's kUpLease renewals to its parent.
inline constexpr double kUpleasePeriod = 10.0;

struct FailureDetectorConfig {
  /// Interval between a leader's intra-cell heartbeat floods.
  double heartbeat_period = 5.0;
  /// How long one received beat keeps a follower's lease alive. Must cover
  /// several heartbeat periods or sporadic loss triggers spurious elections.
  double lease_duration = 16.0;
  /// How long an election candidate collects keys before closing. Must
  /// cover an intra-cell flood round trip including ARQ retries.
  double election_timeout = 8.0;
  /// Parent-side lease on each expected child cell.
  double uplease_duration = 35.0;
  /// Residual-energy threshold (in energy units) below which a leader
  /// solicits a planned handoff instead of leading until its battery dies.
  /// 0 disables; with infinite budgets residual is +inf and never crosses,
  /// so enabling the knob is free on unbudgeted stacks.
  double handoff_low_water = 0.0;
  /// Interval between a leader's self-stabilization audit floods (kAudit):
  /// each round every member lexicographically reconciles its (leader,
  /// epoch) view against the auditor's PraSLE-style and validates/repairs
  /// its own route-table entries, so *any* reachable state corruption —
  /// repointed leader beliefs, self-crowned impostors, scrambled routes —
  /// converges back to one correct leader per cell within an audit period
  /// plus an election. 0 disables (the default: audits add periodic
  /// traffic, and byte-identical replay of pre-existing seeded runs
  /// requires opting in).
  double audit_period = 0.0;
  /// Live-membership mode: cell beliefs and leader rosters become runtime
  /// state (emulation::MembershipView) maintained and repaired by the same
  /// message machinery — kAudit floods carry a roster digest, defected
  /// beliefs self-heal from local position knowledge, and a node orphaned
  /// in an empty or disconnected cell is *adopted* by the nearest reachable
  /// neighboring cell, whose leader then serves the vacated virtual node by
  /// proxy (zero dark cells). Requires audit_period > 0 for the roster
  /// repair bound to hold. Off by default: byte-identical replay of
  /// pre-existing seeded runs requires opting in.
  bool membership = false;
};

/// One successful re-election, as recorded at the winner.
struct ClaimRecord {
  core::GridCoord cell;
  std::uint64_t epoch = 0;
  net::NodeId winner = net::kNoNode;
  net::NodeId old_leader = net::kNoNode;
  sim::Time at = 0.0;
  /// True when the old leader solicited this succession (proactive
  /// handoff) rather than being voted out after a lease expiry.
  bool planned = false;
};

/// One orphan adoption, as recorded at the orphan when it defected.
struct AdoptionRecord {
  net::NodeId node = net::kNoNode;
  core::GridCoord from{-1, -1};  // the cell the orphan abandoned
  core::GridCoord to{-1, -1};    // the adopter cell it joined
  sim::Time at = 0.0;
};

class FailureDetector {
 public:
  /// The overlay must outlive the detector. When the overlay has an ARQ
  /// channel attached, the detector takes over its on_give_up hook (route
  /// repair on hop give-up; a give-up whose sender is down or depleted
  /// suspects nobody).
  FailureDetector(OverlayNetwork& overlay, FailureDetectorConfig cfg = {});
  /// Detaches the membership view from the overlay (the overlay outlives
  /// the detector and must not dangle into it).
  ~FailureDetector();

  /// Seeds every node's view from the converged setup binding (the result
  /// the Section 5.2 protocol announced to all members) and starts the
  /// heartbeat/lease timers. While running, the simulator's queue never
  /// drains — drive it with run_until(), then stop().
  void start();

  /// Stops all periodic timers; already-scheduled firings become no-ops, so
  /// Simulator::run() terminates again.
  void stop();

  bool running() const { return running_; }

  /// Node `i`'s current belief of its cell's leader / binding epoch —
  /// local per-node protocol state, exposed for tests and audits.
  net::NodeId believed_leader(net::NodeId i) const {
    return believed_leader_[i];
  }
  std::uint64_t epoch_view(net::NodeId i) const { return epoch_[i]; }

  /// Every successful re-election so far, in commit order.
  const std::vector<ClaimRecord>& claims() const { return claims_; }

  /// Planned successions committed so far (claims with planned == true).
  std::size_t planned_handoffs() const;

  /// The live membership view, or nullptr when membership mode is off or
  /// the detector has not started.
  const MembershipView* membership_view() const { return membership_.get(); }

  /// Every orphan adoption so far, in commit order (membership mode only).
  const std::vector<AdoptionRecord>& adoptions() const { return adoptions_; }

  /// Vacated cells re-bound to a proxy leader so far (membership mode).
  std::uint64_t adopt_binds() const { return adopt_binds_; }

  /// Membership end-state audit (test/assert only — consults is_down):
  /// cells whose bound virtual node is missing or dead (a dark cell
  /// adoption failed to cover), cells where a live node's belief is absent
  /// from the believed cell's roster, and cells whose roster lists a live
  /// node that believes elsewhere. Empty once reconciliation and adoption
  /// have settled; dead nodes' frozen beliefs and roster entries are
  /// ignored. Always empty when membership mode is off.
  std::vector<core::GridCoord> membership_violations() const;

  /// Makes `cell`'s current leader solicit a handoff now, regardless of its
  /// residual energy — the operator/test entry point for planned
  /// maintenance. Returns false when the cell has no live, self-believing
  /// leader to retire (nothing was sent).
  bool request_handoff(const core::GridCoord& cell);

  /// Split-brain audit (test/assert only — consults is_down): cells where
  /// two live nodes both believe they lead at the same epoch.
  std::vector<core::GridCoord> split_brains() const;

  /// End-state convergence audit (test/assert only — consults is_down):
  /// cells whose live members do not all agree on one (leader, epoch), or
  /// whose agreed leader is not itself live and self-believing. Empty once
  /// self-stabilization has completed; the corruption soak asserts exactly
  /// that after the stabilization bound. Cells with no live members are
  /// skipped (an empty cell has no view to agree on).
  std::vector<core::GridCoord> unconverged_cells() const;

  /// Deterministically scrambles `node`'s soft protocol state (the
  /// FaultInjector's state_corruption applier): the concrete wrong values
  /// are drawn from the simulator's seeded RNG, so seed + plan reproduce
  /// the exact corrupted state. Returns false (and does nothing) when the
  /// detector is stopped or the node is down. Emits an "fd.corrupt" trace
  /// event carrying the target name and the analytic stabilization bound,
  /// which the trace oracle's self-stabilization invariant keys off.
  bool inject_corruption(net::NodeId node, sim::CorruptionTarget target);

  /// Analytic re-convergence bound after one inject_corruption: worst case
  /// is a lease poisoned up to two lease durations ahead, plus a full
  /// election close (timeout + maximum stagger), plus one audit round for
  /// the views only reconciliation can repair, plus flood/ARQ slack. In
  /// membership mode one more audit round is added (the roster-repair
  /// term): a scrambled roster is only detected and reinstated when the
  /// next audit digest crosses it, which can land a full period after the
  /// leader-view repair the first round bought.
  double stabilization_bound() const {
    return 2.5 * cfg_.lease_duration + 1.5 * cfg_.election_timeout +
           cfg_.audit_period + (cfg_.membership ? cfg_.audit_period : 0.0) +
           10.0;
  }

  sim::CounterSet& counters() { return counters_; }

  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "fd") const {
    registry.add_counters(prefix + ".counters", &counters_);
    registry.add_gauge(prefix + ".elections", [this] {
      return static_cast<double>(claims_.size());
    });
  }

 private:
  struct FdMsg;  // the body of a control frame (layout local to the cpp)
  class Frame;   // the wire type: a shared handle to an immutable FdMsg

  enum class Counter : std::uint8_t {
    kAdopt, kAdoptAccept, kAdoptBind, kAudit, kAuditConflict, kAuditHeal,
    kAuditStale, kBeat, kCellResume, kCellSuspect, kClaim, kConflict,
    kCorrupt, kDefect, kDemote, kElect, kElectJoin, kEpochRegress,
    kFalseSuspect, kHandoff, kHandoffClaim, kHandoffDecline, kHopGiveUp,
    kLeaseExpire, kMemberHeal, kRejoin, kRosterConflict, kRosterCorrupt,
    kRosterHeal, kRouteRepair, kStaleBeat, kStaleElect, kStranded, kSync,
    kUnroutable, kUnsuspect, kUplease, kCount
  };
  static constexpr std::string_view kCounterNames[] = {
      "fd.adopt", "fd.adopt_accept", "fd.adopt_bind", "fd.audit",
      "fd.audit_conflict", "fd.audit_heal", "fd.audit_stale", "fd.beat",
      "fd.cell_resume", "fd.cell_suspect", "fd.claim", "fd.conflict",
      "fd.corrupt", "fd.defect", "fd.demote", "fd.elect", "fd.elect_join",
      "fd.epoch_regress", "fd.false_suspect", "fd.handoff",
      "fd.handoff_claim", "fd.handoff_decline", "fd.hop_give_up",
      "fd.lease_expire", "fd.member_heal", "fd.rejoin",
      "fd.roster_conflict", "fd.roster_corrupt", "fd.roster_heal",
      "fd.route_repair", "fd.stale_beat", "fd.stale_elect", "fd.stranded",
      "fd.sync", "fd.unroutable", "fd.unsuspect", "fd.uplease"};
  static_assert(sim::counter_table_ok<Counter>(kCounterNames));


  sim::Simulator& sim() { return overlay_.simulator(); }
  net::LinkLayer& link() { return overlay_.link(); }
  const CellMapper& mapper() const { return overlay_.mapper(); }

  void on_control(net::NodeId at, const net::Packet& pkt);
  void handle(net::NodeId at, const Frame& frame,
              net::NodeId from = net::kNoNode);
  void adopt(net::NodeId i, net::NodeId leader, std::uint64_t epoch);
  void renew_lease(net::NodeId i);
  void arm_watchdog(net::NodeId i);
  void on_watchdog(net::NodeId i);
  void start_election(net::NodeId i);
  /// Schedules `i`'s close of the election at `target`, unless one is
  /// already armed.
  void arm_election_close(net::NodeId i, std::uint64_t target);
  void close_election(net::NodeId i, std::uint64_t target);
  void win_election(net::NodeId w, std::uint64_t epoch);
  void maybe_handoff(net::NodeId leader);
  void start_handoff(net::NodeId leader);
  void beat(net::NodeId leader);
  void audit(net::NodeId leader);
  void uplease(std::size_t cell_idx);
  void uplease_send(std::size_t cell_idx);
  void arm_child_watchdog(std::size_t cell_idx);
  /// Sends `frame` to each same-cell neighbour of `from`: one body, a
  /// handle per neighbour.
  void flood(net::NodeId from, const Frame& frame);
  /// Leader `at` re-floods its binding (a kSync at its epoch) through
  /// `cell`, whose members spoke from an out-of-date view.
  void resync(net::NodeId at, const core::GridCoord& cell);
  /// Sends `msg` one hop from `at` toward the leader serving `target`,
  /// or counts it unroutable; `from` is the node it arrived from.
  void route_control(net::NodeId at, const FdMsg& msg,
                     const core::GridCoord& target,
                     net::NodeId from = net::kNoNode);
  /// Node's cell for protocol purposes: the live belief in membership mode,
  /// the geometric cell otherwise.
  core::GridCoord cell_view(net::NodeId i) const;
  void rebuild_cell_neighbors(net::NodeId i);
  /// Moves `i`'s belief (and roster listing) to `to`, refreshing the
  /// same-cell neighbor lists of `i` and everyone in radio range of it.
  void move_belief(net::NodeId i, const core::GridCoord& to);
  /// Self-check against local knowledge (own position + terrain): snaps a
  /// corruption-defected belief back to the geometric cell. Deliberate
  /// adoptions are exempt. Returns true when a belief was healed.
  bool heal_belief(net::NodeId i);
  /// Component-based orphan adoption: after a full lease of total cell
  /// silence, join the nearest reachable neighboring cell instead of
  /// electing over a component of one. Returns false when fully isolated.
  bool try_adopt(net::NodeId i);
  /// Re-binds a vacated cell's virtual node to `proxy` (an adopter or
  /// parent leader living elsewhere), restoring coverage.
  void adopt_bind(net::NodeId proxy, const core::GridCoord& cell);
  double score(net::NodeId i) const;
  double residual(net::NodeId i) const;
  void trace_fd(obs::EventName name, net::NodeId node,
                const obs::AttrList& attrs);

  OverlayNetwork& overlay_;
  FailureDetectorConfig cfg_;
  bool running_ = false;
  /// Bumped on every start(); stale timer closures compare and bail, so a
  /// stop()/start() cycle cannot resurrect old state.
  std::uint64_t run_gen_ = 0;

  // Per-node protocol state (all message-learned after start()'s snapshot
  // of the announced setup binding).
  std::vector<net::NodeId> believed_leader_;
  std::vector<std::uint64_t> epoch_;
  std::vector<sim::Time> lease_expiry_;
  std::vector<bool> watchdog_armed_;
  std::vector<bool> was_down_;  // reboot observed; next up-watchdog rejoins
  std::vector<std::uint64_t> beat_seq_;        // own sequence, as leader
  std::vector<std::uint64_t> seen_beat_epoch_;  // flood dedup highwater
  std::vector<std::uint64_t> seen_beat_seq_;
  std::vector<std::uint64_t> audit_seq_;         // own sequence, as auditor
  std::vector<std::uint64_t> seen_audit_epoch_;  // audit dedup highwater
  std::vector<std::uint64_t> seen_audit_seq_;
  /// Epoch-regression responses are muted per node between floods so one
  /// regressed leader's beat burst doesn't trigger O(degree^2) syncs.
  std::vector<sim::Time> regress_mute_until_;
  std::vector<std::uint64_t> elect_epoch_;  // target epoch; 0 = idle
  std::vector<double> elect_best_score_;
  std::vector<double> elect_best_residual_;
  std::vector<net::NodeId> elect_best_id_;
  std::vector<bool> elect_close_armed_;
  std::vector<bool> elect_handoff_;  // current election is a planned handoff
  std::vector<sim::Time> next_handoff_ok_;  // retry cooldown, per leader
  /// Same-cell neighbor lists (local knowledge: radio range + own cell).
  std::vector<std::vector<net::NodeId>> cell_neighbors_;

  // Membership mode (cfg_.membership): live beliefs/rosters plus the
  // adoption machinery. membership_ is null when the mode is off, and
  // every membership code path is gated on it, so default-config behavior
  // stays byte-identical.
  std::unique_ptr<MembershipView> membership_;
  /// Last time a same-cell control frame reached the node — the silence
  /// clock behind orphan detection (a follower that closes an election
  /// after a full lease of total cell silence is alone in its cell).
  std::vector<sim::Time> last_cell_frame_;
  /// Nodes whose belief deliberately differs from geometry (adopted
  /// orphans); heal_belief leaves these alone.
  std::vector<bool> adopted_;
  std::vector<AdoptionRecord> adoptions_;
  std::uint64_t adopt_binds_ = 0;

  // Per-cell state, row-major by cell index.
  std::vector<net::NodeId> cell_leader_;  // latest committed claimant
  std::vector<std::int32_t> parent_of_;   // parent cell index; -1 for root
  std::vector<sim::Time> child_expiry_;
  std::vector<bool> child_suspected_;
  std::vector<bool> child_watchdog_armed_;
  std::vector<net::NodeId> child_last_leader_;
  std::vector<bool> has_children_;

  std::vector<ClaimRecord> claims_;
  sim::CounterSet counters_{kCounterNames};
};

}  // namespace wsn::emulation
