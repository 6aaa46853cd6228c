#include "emulation/failure_detector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "net/reliable_link.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace wsn::emulation {

/// Body of every control frame. `cell` is the subject cell (the flood's own
/// cell, or the child cell of an uplease); `dst_cell` is only used by
/// hop-routed upleases.
struct FailureDetector::FdMsg {
  enum Kind : std::uint8_t {
    kBeat, kElect, kClaim, kSync, kUpLease, kAudit, kJoin
  };
  Kind kind = kBeat;
  core::GridCoord cell{0, 0};
  core::GridCoord dst_cell{0, 0};
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;              // beats: per-leader sequence
  net::NodeId leader = net::kNoNode;  // beat/claim/sync/uplease: the leader
  double score = 0.0;                     // elect: best key's score so far
  net::NodeId origin = net::kNoNode;      // elect: best key's node id
                                          // join: the orphan
  double residual = 0.0;                  // elect: best key's residual energy
  bool handoff = false;                   // elect: solicited by the leader
  // Membership mode only (zero/defaulted otherwise):
  core::GridCoord src_cell{-1, -1};   // join: the cell the orphan abandoned
  std::uint64_t roster_digest = 0;    // audit: digest of the leader's roster
  bool last = false;  // join: orphan's evidence it was the cell's last
                      // reachable member (a full lease of total silence)
  OverlayNetwork::RouteState route{};  // hop-routed frames: detour state
};

/// The one wire type of the control frames: a handle to an immutable FdMsg
/// body shared by reference count. The handle is one pointer with a
/// noexcept move, so std::any holds it in place and sending a frame
/// allocates nothing. A flood boxes its body once and sends each neighbour
/// a copy of the handle, and forwarding an unchanged beat, claim, sync or
/// audit passes on the body that arrived; only a frame that changes per hop
/// (an election's best key, a hop-routed uplease or join) gets a body of
/// its own. The count is a plain integer, not an atomic: a frame never
/// leaves the simulator that sent it, and each simulator runs on one
/// thread.
class FailureDetector::Frame {
 public:
  explicit Frame(const FdMsg& msg) : body_(new Body{msg, 1}) {}
  Frame(const Frame& other) noexcept : body_(other.body_) { ++body_->refs; }
  Frame(Frame&& other) noexcept
      : body_(std::exchange(other.body_, nullptr)) {}
  Frame& operator=(const Frame&) = delete;
  Frame& operator=(Frame&&) = delete;
  ~Frame() {
    if (body_ != nullptr && --body_->refs == 0) delete body_;
  }

  const FdMsg& operator*() const { return body_->msg; }

 private:
  struct Body {
    FdMsg msg;
    std::uint32_t refs;
  };
  Body* body_;
};

namespace {

/// Airtime/energy size of one control frame, in data units.
constexpr double kBeatSizeUnits = 0.25;

/// Lexicographic election key order: more residual energy wins first (so
/// recovery rotates leadership toward the best-supplied member; on
/// unbudgeted stacks every residual is +inf and the term ties out), then
/// lower binding score, then lower id.
bool key_less(double ra, double sa, net::NodeId ia, double rb, double sb,
              net::NodeId ib) {
  if (ra != rb) return ra > rb;
  if (sa != sb) return sa < sb;
  return ia < ib;
}

}  // namespace

FailureDetector::FailureDetector(OverlayNetwork& overlay,
                                 FailureDetectorConfig cfg)
    : overlay_(overlay), cfg_(cfg) {}

FailureDetector::~FailureDetector() {
  if (overlay_.membership_view() == membership_.get()) {
    overlay_.set_membership_view(nullptr);
  }
}

core::GridCoord FailureDetector::cell_view(net::NodeId i) const {
  return membership_ != nullptr ? membership_->cell_of(i)
                                : mapper().cell_of(i);
}

void FailureDetector::rebuild_cell_neighbors(net::NodeId i) {
  cell_neighbors_[i].clear();
  for (net::NodeId v : link().graph().neighbors(i)) {
    if (cell_view(v) == cell_view(i)) cell_neighbors_[i].push_back(v);
  }
}

void FailureDetector::move_belief(net::NodeId i, const core::GridCoord& to) {
  membership_->set_cell_of(i, to);
  adopted_[i] = !(to == mapper().cell_of(i));
  rebuild_cell_neighbors(i);
  for (net::NodeId v : link().graph().neighbors(i)) rebuild_cell_neighbors(v);
}

bool FailureDetector::heal_belief(net::NodeId i) {
  if (membership_ == nullptr || adopted_[i]) return false;
  const core::GridCoord truth = mapper().cell_of(i);
  if (membership_->cell_of(i) == truth) return false;
  // Every node can recompute its cell from its own (x, y) and the terrain
  // (Section 5.1 local knowledge), so a defected belief is detectable the
  // moment the node inspects it — PraSLE-style local checking. Adopted
  // orphans never reach this: their divergence is deliberate.
  const core::GridCoord was = membership_->cell_of(i);
  move_belief(i, truth);
  counters_.add(Counter::kMemberHeal);
  trace_fd("fd.member_heal", i,
           {{"from_row", static_cast<std::int64_t>(was.row)},
            {"from_col", static_cast<std::int64_t>(was.col)},
            {"row", static_cast<std::int64_t>(truth.row)},
            {"col", static_cast<std::int64_t>(truth.col)}});
  // Re-anchor on the true cell's announced binding; the next beat corrects
  // any staleness via adopt-if-newer.
  const std::size_t ci = overlay_.grid().index_of(truth);
  believed_leader_[i] = cell_leader_[ci];
  epoch_[i] = overlay_.binding_epoch(truth);
  last_cell_frame_[i] = sim().now();
  if (believed_leader_[i] != i) renew_lease(i);
  return true;
}

bool FailureDetector::try_adopt(net::NodeId i) {
  // Component-based re-formation (the clustering scheme in PAPERS.md):
  // candidates are the belief cells of the node's live-looking radio
  // neighbors — local knowledge only. "Nearest" is the geometric distance
  // to the candidate cell's center; ties break on the iteration order of
  // the (id-sorted) neighbor list, so the choice is deterministic.
  const core::GridCoord here = cell_view(i);
  const net::Point& pos = link().graph().position(i);
  core::GridCoord best{-1, -1};
  net::NodeId gateway = net::kNoNode;
  double best_d = std::numeric_limits<double>::infinity();
  for (net::NodeId v : link().graph().neighbors(i)) {
    const core::GridCoord c = cell_view(v);
    if (c == here || overlay_.is_suspected(v)) continue;
    const net::Point ctr = mapper().cell_center(c);
    const double dx = ctr.x - pos.x;
    const double dy = ctr.y - pos.y;
    const double d = dx * dx + dy * dy;
    if (d < best_d) {
      best_d = d;
      best = c;
      gateway = v;
    }
  }
  if (gateway == net::kNoNode) {
    // Fully isolated: nobody to defect to. Stay put; the next lease cycle
    // retries (a recovery may restore a neighbor).
    counters_.add(Counter::kStranded);
    trace_fd("fd.stranded", i,
             {{"row", static_cast<std::int64_t>(here.row)},
              {"col", static_cast<std::int64_t>(here.col)}});
    return false;
  }
  move_belief(i, best);
  adoptions_.push_back({i, here, best, sim().now()});
  counters_.add(Counter::kAdopt);
  trace_fd("fd.adopt", i,
           {{"from_row", static_cast<std::int64_t>(here.row)},
            {"from_col", static_cast<std::int64_t>(here.col)},
            {"row", static_cast<std::int64_t>(best.row)},
            {"col", static_cast<std::int64_t>(best.col)},
            {"last", static_cast<std::uint64_t>(1)},
            {"bound", stabilization_bound()}});
  // Join the adopter cell's protocol: anchor on its announced binding and
  // hang off its intra-cell tree, then announce the adoption to its leader
  // (one hop to the gateway, then a climb).
  const std::size_t di = overlay_.grid().index_of(best);
  believed_leader_[i] = cell_leader_[di];
  epoch_[i] = overlay_.binding_epoch(best);
  elect_epoch_[i] = 0;
  renew_lease(i);
  last_cell_frame_[i] = sim().now();
  overlay_.refresh_cell_tree(best);
  FdMsg join;
  join.kind = FdMsg::kJoin;
  join.cell = best;
  join.src_cell = here;
  join.origin = i;
  join.last = true;  // the silence criterion IS the evidence
  overlay_.send_control(i, gateway, Frame(join), kBeatSizeUnits);
  return true;
}

void FailureDetector::adopt_bind(net::NodeId proxy,
                                 const core::GridCoord& cell) {
  const std::size_t ci = overlay_.grid().index_of(cell);
  if (cell_leader_[ci] == proxy && overlay_.bound_node(cell) == proxy) {
    return;  // already proxied here
  }
  cell_leader_[ci] = proxy;
  // Binding a proxy asserts the cell has no live members left: every relay
  // listed in its roster is gone, so traffic must route around the dead
  // cell *now*. Waiting for the ARQ to give up (tens of time units
  // per blackholed gateway) would stall upleases from every cell whose
  // dimension-order path crosses the hole, cascading spurious suspicion
  // far past the stabilization bound. A wrongly-purged survivor is
  // restored by proof of life: any control frame it sends clears the
  // suspicion again.
  if (membership_ != nullptr) {
    for (net::NodeId r : membership_->roster(cell)) {
      if (r != proxy && !overlay_.is_suspected(r)) {
        overlay_.on_hop_give_up(proxy, r);
      }
    }
  }
  const std::uint64_t epoch = overlay_.binding_epoch(cell) + 1;
  overlay_.rebind(cell, proxy, epoch);
  ++adopt_binds_;
  counters_.add(Counter::kAdoptBind);
  trace_fd("fd.adopt_bind", proxy,
           {{"row", static_cast<std::int64_t>(cell.row)},
            {"col", static_cast<std::int64_t>(cell.col)},
            {"epoch", epoch}});
}

double FailureDetector::score(net::NodeId i) const {
  // The setup election's metric, so a re-election picks the winner the
  // setup binding (and oracle_leaders) would.
  return binding_score(i, overlay_.mapper(),
                       BindingMetric::kDistanceToCenter,
                       overlay_.link().ledger());
}

double FailureDetector::residual(net::NodeId i) const {
  return overlay_.link().ledger().remaining(i);
}

void FailureDetector::trace_fd(obs::EventName name, net::NodeId node,
                               const obs::AttrList& attrs) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Category::kReliability)) return;
  tr.emit({sim().now(), static_cast<std::int64_t>(node),
           obs::Category::kReliability, 'i', name, 0, attrs});
}

void FailureDetector::start() {
  ++run_gen_;
  running_ = true;
  const std::size_t n = link().graph().node_count();
  const std::size_t side = mapper().grid_side();
  const std::size_t cells = side * side;
  const auto& grid = overlay_.grid();
  const auto& groups = overlay_.groups();
  const sim::Time now = sim().now();

  believed_leader_.assign(n, net::kNoNode);
  epoch_.assign(n, 0);
  lease_expiry_.assign(n, 0.0);
  watchdog_armed_.assign(n, false);
  was_down_.assign(n, false);
  beat_seq_.assign(n, 0);
  seen_beat_epoch_.assign(n, 0);
  seen_beat_seq_.assign(n, 0);
  audit_seq_.assign(n, 0);
  seen_audit_epoch_.assign(n, 0);
  seen_audit_seq_.assign(n, 0);
  regress_mute_until_.assign(n, 0.0);
  elect_epoch_.assign(n, 0);
  elect_best_score_.assign(n, 0.0);
  elect_best_residual_.assign(n, 0.0);
  elect_best_id_.assign(n, net::kNoNode);
  elect_close_armed_.assign(n, false);
  elect_handoff_.assign(n, false);
  next_handoff_ok_.assign(n, 0.0);
  membership_.reset();
  if (cfg_.membership) {
    membership_ = std::make_unique<MembershipView>(mapper());
  }
  overlay_.set_membership_view(membership_.get());
  last_cell_frame_.assign(n, now);
  adopted_.assign(n, false);
  adoptions_.clear();
  adopt_binds_ = 0;
  cell_neighbors_.assign(n, {});
  for (net::NodeId i = 0; i < n; ++i) {
    for (net::NodeId v : link().graph().neighbors(i)) {
      if (mapper().cell_of(v) == mapper().cell_of(i)) {
        cell_neighbors_[i].push_back(v);
      }
    }
  }

  cell_leader_.assign(cells, net::kNoNode);
  parent_of_.assign(cells, -1);
  child_expiry_.assign(cells, 0.0);
  child_suspected_.assign(cells, false);
  child_watchdog_armed_.assign(cells, false);
  child_last_leader_.assign(cells, net::kNoNode);
  has_children_.assign(cells, false);
  claims_.clear();

  // Seed every node's view from the announced result of the setup binding
  // protocol (Section 5.2 floods the winner to all cell members), and
  // derive the lease hierarchy from grid arithmetic — both are knowledge
  // each node already holds locally.
  for (const core::GridCoord& c : grid.all_coords()) {
    const std::size_t ci = grid.index_of(c);
    cell_leader_[ci] = overlay_.bound_node(c);
    child_last_leader_[ci] = cell_leader_[ci];
    for (std::uint32_t level = 1; level <= groups.max_level(); ++level) {
      const core::GridCoord p = groups.leader_of(c, level);
      if (!(p == c)) {
        parent_of_[ci] = static_cast<std::int32_t>(grid.index_of(p));
        break;
      }
    }
    if (parent_of_[ci] >= 0) {
      has_children_[static_cast<std::size_t>(parent_of_[ci])] = true;
    }
  }
  for (net::NodeId i = 0; i < n; ++i) {
    const std::size_t ci = grid.index_of(mapper().cell_of(i));
    believed_leader_[i] = cell_leader_[ci];
    epoch_[i] = overlay_.binding_epoch(mapper().cell_of(i));
    // Initial grace: 1.5 leases before the first expiry can fire, covering
    // the staggered first beats.
    lease_expiry_[i] = now + cfg_.lease_duration * 1.5;
    if (believed_leader_[i] != i) arm_watchdog(i);
  }

  // Leaders start beating (staggered so 64 cells do not all key up in the
  // same microsecond) and leasing up the hierarchy.
  for (std::size_t ci = 0; ci < cells; ++ci) {
    const net::NodeId leader = cell_leader_[ci];
    if (leader != net::kNoNode) {
      const double stagger =
          cfg_.heartbeat_period * (static_cast<double>(ci % 8) + 1.0) / 9.0;
      const std::uint64_t gen = run_gen_;
      sim().schedule_in(stagger, [this, leader, gen] {
        if (gen != run_gen_ || !running_) return;
        beat(leader);
      });
      if (cfg_.audit_period > 0.0) {
        // Audits stagger on a different residue than beats so the two
        // periodic floods of one cell don't land on the same tick.
        const double audit_stagger =
            cfg_.audit_period * (static_cast<double>(ci % 7) + 1.5) / 9.0;
        sim().schedule_in(audit_stagger, [this, leader, gen] {
          if (gen != run_gen_ || !running_) return;
          audit(leader);
        });
      }
    }
    if (parent_of_[ci] >= 0) {
      child_expiry_[ci] = now + cfg_.uplease_duration * 1.5;
      const double stagger =
          kUpleasePeriod * (static_cast<double>(ci % 5) + 1.0) / 6.0;
      const std::uint64_t gen = run_gen_;
      sim().schedule_in(stagger, [this, ci, gen] {
        if (gen != run_gen_ || !running_) return;
        uplease(ci);
      });
    }
  }
  for (std::size_t ci = 0; ci < cells; ++ci) {
    if (parent_of_[ci] >= 0) arm_child_watchdog(ci);
  }

  const std::uint64_t gen = run_gen_;
  overlay_.set_control_receiver(
      [this, gen](net::NodeId at, const net::Packet& pkt) {
        if (gen != run_gen_ || !running_) return;
        on_control(at, pkt);
      });
  if (net::ReliableChannel* arq = overlay_.arq()) {
    arq->set_on_give_up([this, gen](net::NodeId from, net::NodeId to,
                                    std::uint64_t, std::uint32_t) {
      if (gen != run_gen_ || !running_) return;
      // A dead sender's exchange gives up after one attempt and says
      // nothing about the next hop: suspecting it would purge routes that
      // nothing restores once the sender recovers.
      if (link().is_down(from) || link().ledger().depleted(from)) return;
      counters_.add(Counter::kHopGiveUp);
      overlay_.on_hop_give_up(from, to);
    });
  }
}

void FailureDetector::stop() { running_ = false; }

void FailureDetector::renew_lease(net::NodeId i) {
  lease_expiry_[i] = sim().now() + cfg_.lease_duration;
  arm_watchdog(i);
}

void FailureDetector::arm_watchdog(net::NodeId i) {
  if (watchdog_armed_[i]) return;
  watchdog_armed_[i] = true;
  const std::uint64_t gen = run_gen_;
  sim().schedule_at(std::max(lease_expiry_[i], sim().now()), [this, i, gen] {
    if (gen != run_gen_ || !running_) return;
    watchdog_armed_[i] = false;
    on_watchdog(i);
  });
}

void FailureDetector::on_watchdog(net::NodeId i) {
  obs::ProfSpan prof(obs::ProfCat::kDetector);
  if (link().is_down(i)) {
    // Own radio is dead (a node always knows that much). Keep a reboot
    // probe scheduled so the node re-engages after a recovery.
    was_down_[i] = true;
    renew_lease(i);
    return;
  }
  if (was_down_[i]) {
    // Rejoin: first watchdog after a recovery. Neighbors marked this node
    // suspected when its routes gave up, and suspected nodes are skipped by
    // heartbeat floods — without a proof of life it would starve, expire,
    // and call a spurious election. Flood a one-hop hello (a kSync carrying
    // our possibly-stale view; adopt-if-newer makes it harmless): its mere
    // delivery clears suspicion at every live neighbor, after which the
    // current leader's beats reach us again and resync the epoch.
    was_down_[i] = false;
    counters_.add(Counter::kRejoin);
    trace_fd("fd.rejoin", i,
             {{"leader", static_cast<std::uint64_t>(believed_leader_[i])},
              {"epoch", epoch_[i]}});
    FdMsg hello;
    hello.kind = FdMsg::kSync;
    hello.cell = cell_view(i);
    hello.epoch = epoch_[i];
    hello.leader = believed_leader_[i];
    flood(i, Frame(hello));
    renew_lease(i);
    return;
  }
  // Membership self-check before acting on the lease: a corruption-defected
  // belief must not drive elections (or adoptions) in the wrong cell.
  heal_belief(i);
  if (believed_leader_[i] == i) return;  // leaders do not lease themselves
  if (sim().now() + 1e-12 < lease_expiry_[i]) {
    arm_watchdog(i);  // renewed since this timer was armed
    return;
  }
  if (elect_close_armed_[i]) {
    // An election this node joined is still open; give it time instead of
    // escalating the epoch mid-election.
    renew_lease(i);
    return;
  }
  counters_.add(Counter::kLeaseExpire);
  trace_fd("fd.lease_expire", i,
           {{"leader", static_cast<std::uint64_t>(believed_leader_[i])}});
  start_election(i);
  renew_lease(i);
}

void FailureDetector::start_election(net::NodeId i) {
  const core::GridCoord cell = cell_view(i);
  // Strictly above anything seen: a failed election (winner crashed before
  // its claim spread) is retried at a fresh epoch, never deadlocked on
  // stale best-key state.
  const std::uint64_t target = std::max(epoch_[i], elect_epoch_[i]) + 1;
  elect_epoch_[i] = target;
  elect_best_score_[i] = score(i);
  elect_best_residual_[i] = residual(i);
  elect_best_id_[i] = i;
  elect_handoff_[i] = false;
  counters_.add(Counter::kElect);
  trace_fd("fd.elect", i,
           {{"row", static_cast<std::int64_t>(cell.row)},
            {"col", static_cast<std::int64_t>(cell.col)},
            {"epoch", target}});
  FdMsg m;
  m.kind = FdMsg::kElect;
  m.cell = cell;
  m.epoch = target;
  m.score = elect_best_score_[i];
  m.origin = i;
  m.residual = elect_best_residual_[i];
  flood(i, Frame(m));
  arm_election_close(i, target);
}

void FailureDetector::arm_election_close(net::NodeId i, std::uint64_t target) {
  if (elect_close_armed_[i]) return;
  elect_close_armed_[i] = true;
  // Score-proportional stagger: the best key closes (and claims) first, so
  // by the time worse keys close they have heard the claim.
  const double s = std::max(elect_best_score_[i], 0.0);
  const double stagger = cfg_.election_timeout * 0.25 * (s / (1.0 + s));
  const std::uint64_t gen = run_gen_;
  sim().schedule_in(cfg_.election_timeout + stagger, [this, i, target, gen] {
    if (gen != run_gen_ || !running_) return;
    elect_close_armed_[i] = false;
    close_election(i, target);
  });
}

void FailureDetector::close_election(net::NodeId i, std::uint64_t target) {
  if (link().is_down(i)) return;
  if (epoch_[i] >= target) return;        // a claim settled this epoch
  if (elect_epoch_[i] != target) return;  // superseded by a later election
  if (elect_best_id_[i] != i) return;     // lost; the winner's claim is due
  if (membership_ != nullptr && !elect_handoff_[i] &&
      sim().now() + 1e-12 >= last_cell_frame_[i] + cfg_.lease_duration) {
    // Winning with no competing key AND a full lease of total cell silence
    // (no beat, claim, sync, or even a rival's election flood — live
    // cellmates would have joined this election and reset the silence
    // clock) means the node is alone in its believed cell: every member is
    // gone or unreachable. Claiming would crown a component of one and
    // leave the rest of the grid pointing at a dark cell; the component-
    // based re-formation scheme merges the orphan into a reachable
    // neighboring cell instead.
    if (try_adopt(i)) return;
  }
  win_election(i, target);
}

void FailureDetector::win_election(net::NodeId w, std::uint64_t epoch) {
  const core::GridCoord cell = cell_view(w);
  const std::size_t ci = overlay_.grid().index_of(cell);
  const net::NodeId old = believed_leader_[w];
  const bool planned = elect_handoff_[w];
  believed_leader_[w] = w;
  epoch_[w] = epoch;
  cell_leader_[ci] = w;
  claims_.push_back({cell, epoch, w, old, sim().now(), planned});
  counters_.add(Counter::kClaim);
  if (planned) counters_.add(Counter::kHandoffClaim);
  trace_fd("fd.claim", w,
           {{"row", static_cast<std::int64_t>(cell.row)},
            {"col", static_cast<std::int64_t>(cell.col)},
            {"epoch", epoch},
            {"winner", static_cast<std::uint64_t>(w)},
            {"old", static_cast<std::uint64_t>(
                        old == net::kNoNode ? 0 : old)},
            {"planned", static_cast<std::uint64_t>(planned ? 1 : 0)}});
  // Route repair around the silent ex-leader, then re-bind the virtual
  // node here. The winner is trivially alive; make sure no stale suspicion
  // keeps routes away from it. A *planned* handoff retires the role, not
  // the node: the ex-leader is alive (merely low on battery) and usually
  // still the cell's inter-cell gateway, so purging routes through it
  // would black-hole traffic for no failure. Its eventual battery death is
  // repaired organically by the ARQ give-up path like any relay loss.
  if (!planned && old != net::kNoNode && old != w &&
      !overlay_.is_suspected(old)) {
    overlay_.on_hop_give_up(w, old);
  }
  if (planned && old != net::kNoNode && old != w) {
    // Shed relay load off the retiree too: move inter-cell entries to an
    // alternate gateway where one exists (keeping it where none does), so
    // when its battery finally dies almost nothing routes through it.
    overlay_.evacuate_relay(old);
  }
  overlay_.clear_suspected(w);
  overlay_.rebind(cell, w, epoch);
  FdMsg m;
  m.kind = FdMsg::kClaim;
  m.cell = cell;
  m.epoch = epoch;
  m.leader = w;
  flood(w, Frame(m));
  beat_seq_[w] = 0;
  const std::uint64_t gen = run_gen_;
  sim().schedule_in(cfg_.heartbeat_period, [this, w, gen] {
    if (gen != run_gen_ || !running_) return;
    beat(w);
  });
  if (cfg_.audit_period > 0.0) {
    audit_seq_[w] = 0;
    sim().schedule_in(cfg_.audit_period, [this, w, gen] {
      if (gen != run_gen_ || !running_) return;
      audit(w);
    });
  }
  if (parent_of_[ci] >= 0) uplease_send(ci);
}

void FailureDetector::maybe_handoff(net::NodeId leader) {
  if (cfg_.handoff_low_water <= 0.0) return;
  // Residual is +inf on an unbudgeted stack, so the crossing never fires
  // there and the knob costs nothing.
  if (residual(leader) >= cfg_.handoff_low_water) return;
  if (sim().now() < next_handoff_ok_[leader]) return;
  if (cell_neighbors_[leader].empty()) return;  // nobody to hand off to
  // A lost succession (every candidate crashed, claim never spread) is
  // retried one lease later, not every beat: the cooldown keeps a dying
  // leader from spending its last joules flooding probes.
  next_handoff_ok_[leader] = sim().now() + cfg_.lease_duration;
  start_handoff(leader);
}

void FailureDetector::start_handoff(net::NodeId i) {
  const core::GridCoord cell = cell_view(i);
  const std::uint64_t target = std::max(epoch_[i], elect_epoch_[i]) + 1;
  elect_epoch_[i] = target;
  elect_handoff_[i] = true;
  // Sentinel-worst key: the retiring leader opens the succession but can
  // never win it — any member's real key beats (-1 residual, +inf score,
  // kNoNode), and close_election's best_id == self check keeps the
  // initiator from claiming even if nobody answers the probe.
  elect_best_residual_[i] = -1.0;
  elect_best_score_[i] = std::numeric_limits<double>::infinity();
  elect_best_id_[i] = net::kNoNode;
  const double res = residual(i);
  counters_.add(Counter::kHandoff);
  trace_fd("fd.handoff", i,
           {{"row", static_cast<std::int64_t>(cell.row)},
            {"col", static_cast<std::int64_t>(cell.col)},
            {"epoch", target},
            {"residual", std::isfinite(res) ? res : -1.0}});
  FdMsg m;
  m.kind = FdMsg::kElect;
  m.cell = cell;
  m.epoch = target;
  m.score = elect_best_score_[i];
  m.origin = elect_best_id_[i];
  m.residual = elect_best_residual_[i];
  m.handoff = true;
  flood(i, Frame(m));
}

bool FailureDetector::request_handoff(const core::GridCoord& cell) {
  if (!running_) return false;
  const std::size_t ci = overlay_.grid().index_of(cell);
  const net::NodeId leader = cell_leader_[ci];
  if (leader == net::kNoNode) return false;
  if (believed_leader_[leader] != leader) return false;
  if (link().is_down(leader)) return false;
  if (cell_neighbors_[leader].empty()) return false;
  start_handoff(leader);
  return true;
}

std::size_t FailureDetector::planned_handoffs() const {
  std::size_t n = 0;
  for (const ClaimRecord& c : claims_) {
    if (c.planned) ++n;
  }
  return n;
}

void FailureDetector::beat(net::NodeId leader) {
  obs::ProfSpan prof(obs::ProfCat::kDetector);
  // A leader whose own belief was defected must notice before beating the
  // wrong cell (it holds no follower lease, so the watchdog never checks).
  if (!link().is_down(leader)) heal_belief(leader);
  if (believed_leader_[leader] != leader) return;  // deposed: loop ends
  if (!link().is_down(leader)) {
    ++beat_seq_[leader];
    const core::GridCoord cell = cell_view(leader);
    counters_.add(Counter::kBeat);
    trace_fd("fd.beat", leader,
             {{"row", static_cast<std::int64_t>(cell.row)},
              {"col", static_cast<std::int64_t>(cell.col)},
              {"epoch", epoch_[leader]},
              {"seq", beat_seq_[leader]}});
    FdMsg m;
    m.kind = FdMsg::kBeat;
    m.cell = cell;
    m.epoch = epoch_[leader];
    m.seq = beat_seq_[leader];
    m.leader = leader;
    flood(leader, Frame(m));
    maybe_handoff(leader);
  }
  const std::uint64_t gen = run_gen_;
  sim().schedule_in(cfg_.heartbeat_period, [this, leader, gen] {
    if (gen != run_gen_ || !running_) return;
    beat(leader);
  });
}

void FailureDetector::audit(net::NodeId leader) {
  obs::ProfSpan prof(obs::ProfCat::kDetector);
  if (!link().is_down(leader)) heal_belief(leader);
  if (believed_leader_[leader] != leader) return;  // deposed: loop ends
  if (!link().is_down(leader)) {
    ++audit_seq_[leader];
    const core::GridCoord cell = cell_view(leader);
    counters_.add(Counter::kAudit);
    trace_fd("fd.audit", leader,
             {{"row", static_cast<std::int64_t>(cell.row)},
              {"col", static_cast<std::int64_t>(cell.col)},
              {"epoch", epoch_[leader]},
              {"seq", audit_seq_[leader]}});
    FdMsg m;
    m.kind = FdMsg::kAudit;
    m.cell = cell;
    m.epoch = epoch_[leader];
    m.seq = audit_seq_[leader];
    m.leader = leader;
    m.score = score(leader);
    m.residual = residual(leader);
    if (membership_ != nullptr) {
      // Leader-side roster scrub: drop entries whose belief moved away
      // (splice corruption, or an orphan that defected out). Then the
      // flood carries the repaired roster's digest, so any member the
      // roster wrongly *misses* detects the disagreement and reinstates
      // itself on receipt — one audit round repairs either direction.
      const std::vector<net::NodeId> roster = membership_->roster(cell);
      for (net::NodeId r : roster) {
        if (membership_->cell_of(r) == cell) continue;
        membership_->roster_drop(cell, r);
        counters_.add(Counter::kRosterHeal);
        trace_fd("fd.roster_heal", leader,
                 {{"node", static_cast<std::uint64_t>(r)},
                  {"row", static_cast<std::int64_t>(cell.row)},
                  {"col", static_cast<std::int64_t>(cell.col)},
                  {"why", obs::AttrCode("foreign")}});
      }
      // The auditor repairs its own listing too: receivers reinstate
      // themselves when the digest crosses them, but the flood's origin
      // never hears it, so a roster corruption that dropped the *leader*
      // would otherwise survive every round.
      if (membership_->roster_insert(cell, leader)) {
        counters_.add(Counter::kRosterHeal);
        trace_fd("fd.roster_heal", leader,
                 {{"node", static_cast<std::uint64_t>(leader)},
                  {"row", static_cast<std::int64_t>(cell.row)},
                  {"col", static_cast<std::int64_t>(cell.col)},
                  {"why", obs::AttrCode("reinstate")}});
      }
      m.roster_digest = membership_->digest(cell);
    }
    flood(leader, Frame(m));
    // The auditor scrubs its own tables; members scrub theirs on receipt.
    const std::size_t fixed = overlay_.repair_routes(leader);
    if (fixed > 0) {
      counters_.add(Counter::kRouteRepair, fixed);
      trace_fd("fd.route_repair", leader,
               {{"entries", static_cast<std::uint64_t>(fixed)}});
    }
  }
  const std::uint64_t gen = run_gen_;
  sim().schedule_in(cfg_.audit_period, [this, leader, gen] {
    if (gen != run_gen_ || !running_) return;
    audit(leader);
  });
}

void FailureDetector::uplease_send(std::size_t cell_idx) {
  const net::NodeId actor = cell_leader_[cell_idx];
  if (actor == net::kNoNode || link().is_down(actor)) return;
  if (believed_leader_[actor] != actor) return;
  const core::GridCoord cell = overlay_.grid().coord_of(cell_idx);
  const core::GridCoord parent =
      overlay_.grid().coord_of(static_cast<std::size_t>(parent_of_[cell_idx]));
  counters_.add(Counter::kUplease);
  FdMsg m;
  m.kind = FdMsg::kUpLease;
  m.cell = cell;
  m.dst_cell = parent;
  m.epoch = epoch_[actor];
  m.leader = actor;
  if (membership_ != nullptr &&
      (cell_view(actor) == parent || overlay_.bound_node(parent) == actor) &&
      believed_leader_[actor] == actor) {
    // The proxy serving this (vacated) child cell IS the parent cell's
    // leader — or proxies the parent too: the lease renews locally, no
    // radio hop to itself.
    handle(actor, Frame(m));
    return;
  }
  route_control(actor, m, m.dst_cell);
}

void FailureDetector::uplease(std::size_t cell_idx) {
  uplease_send(cell_idx);
  const std::uint64_t gen = run_gen_;
  sim().schedule_in(kUpleasePeriod, [this, cell_idx, gen] {
    if (gen != run_gen_ || !running_) return;
    uplease(cell_idx);
  });
}

void FailureDetector::arm_child_watchdog(std::size_t cell_idx) {
  if (child_watchdog_armed_[cell_idx]) return;
  child_watchdog_armed_[cell_idx] = true;
  const std::uint64_t gen = run_gen_;
  sim().schedule_at(
      std::max(child_expiry_[cell_idx], sim().now()), [this, cell_idx, gen] {
        if (gen != run_gen_ || !running_) return;
        child_watchdog_armed_[cell_idx] = false;
        if (sim().now() + 1e-12 < child_expiry_[cell_idx]) {
          arm_child_watchdog(cell_idx);
          return;
        }
        const std::size_t pi = static_cast<std::size_t>(parent_of_[cell_idx]);
        const net::NodeId actor = cell_leader_[pi];
        if (actor != net::kNoNode && !link().is_down(actor) &&
            !child_suspected_[cell_idx]) {
          child_suspected_[cell_idx] = true;
          counters_.add(Counter::kCellSuspect);
          const core::GridCoord cell = overlay_.grid().coord_of(cell_idx);
          trace_fd("fd.cell_suspect", actor,
                   {{"row", static_cast<std::int64_t>(cell.row)},
                    {"col", static_cast<std::int64_t>(cell.col)}});
          const net::NodeId silent = child_last_leader_[cell_idx];
          if (silent != net::kNoNode && !overlay_.is_suspected(silent)) {
            overlay_.on_hop_give_up(actor, silent);
          }
        } else if (membership_ != nullptr && child_suspected_[cell_idx] &&
                   actor != net::kNoNode && !link().is_down(actor) &&
                   believed_leader_[actor] == actor) {
          // Second consecutive silent uplease window with no resume: the
          // child cell has nobody left to elect, beat, or uplease (a total
          // wipe, or it was empty from the start and no orphan ever
          // announced it). The parent leader adopts the dark child's
          // virtual node so coverage closes; if a survivor later claims at
          // a fresh epoch, its rebind simply supersedes the proxy.
          adopt_bind(actor, overlay_.grid().coord_of(cell_idx));
        }
        child_expiry_[cell_idx] = sim().now() + cfg_.uplease_duration;
        arm_child_watchdog(cell_idx);
      });
}

void FailureDetector::flood(net::NodeId from, const Frame& frame) {
  for (net::NodeId v : cell_neighbors_[from]) {
    // Deliberately no is_suspected() filter, even for steady-state beats:
    // suspicion can be stale (ARQ give-ups for frames sent into a node's
    // crash window fire after it already recovered), and a suspected-but-
    // live member that no beat ever reaches would starve, expire its lease,
    // and call a spurious election. Probing apparently-dead neighbors every
    // period costs a bounded ARQ retry budget and IS the failure detector's
    // job; a delivered beat renews the lease regardless of suspicion, and
    // its delivery is the proof of life that clears the suspicion.
    overlay_.send_control(from, v, frame, kBeatSizeUnits);
  }
}

void FailureDetector::resync(net::NodeId at, const core::GridCoord& cell) {
  counters_.add(Counter::kSync);
  FdMsg sync;
  sync.kind = FdMsg::kSync;
  sync.cell = cell;
  sync.epoch = epoch_[at];
  sync.leader = at;
  flood(at, Frame(sync));
}

void FailureDetector::route_control(net::NodeId at, const FdMsg& msg,
                                    const core::GridCoord& target,
                                    net::NodeId from) {
  FdMsg m = msg;  // route_next_hop updates the frame's detour state
  const net::NodeId nh = overlay_.route_next_hop(at, target, from, &m.route);
  if (nh == net::kNoNode) {
    counters_.add(Counter::kUnroutable);
    return;
  }
  overlay_.send_control(at, nh, Frame(m), kBeatSizeUnits);
}

void FailureDetector::on_control(net::NodeId at, const net::Packet& pkt) {
  obs::ProfSpan prof(obs::ProfCat::kDetector);
  const auto* frame = std::any_cast<Frame>(&pkt.payload);
  if (frame == nullptr) return;
  // Proof of life: any control frame received from a suspected node clears
  // the suspicion (and restores routes through it).
  if (pkt.sender != net::kNoNode && overlay_.is_suspected(pkt.sender)) {
    counters_.add(Counter::kUnsuspect);
    overlay_.clear_suspected(pkt.sender);
  }
  handle(at, *frame, pkt.sender);
}

void FailureDetector::adopt(net::NodeId i, net::NodeId leader,
                            std::uint64_t epoch) {
  if (believed_leader_[i] == i && leader != i) counters_.add(Counter::kDemote);
  believed_leader_[i] = leader;
  epoch_[i] = epoch;
  const std::size_t ci = overlay_.grid().index_of(cell_view(i));
  cell_leader_[ci] = leader;
  if (leader != i) renew_lease(i);
}

void FailureDetector::handle(net::NodeId at, const Frame& frame,
                             net::NodeId from) {
  const FdMsg& msg = *frame;
  if (membership_ != nullptr) {
    // Any control frame is an occasion for the local belief self-check
    // (heal BEFORE filtering: a healed belief changes which frames are
    // ours), and any same-cell frame resets the orphan-silence clock.
    heal_belief(at);
    if (msg.kind != FdMsg::kUpLease && cell_view(at) == msg.cell) {
      last_cell_frame_[at] = sim().now();
    }
  }
  switch (msg.kind) {
    case FdMsg::kUpLease: {
      // The parent cell itself may be dark and served by a proxy leader
      // standing elsewhere; the lease must renew at whoever *holds* the
      // parent's virtual node, not at its empty geometric cell.
      const bool parent_here =
          cell_view(at) == msg.dst_cell ||
          (membership_ != nullptr && overlay_.bound_node(msg.dst_cell) == at);
      if (parent_here && believed_leader_[at] == at) {
        const std::size_t child = overlay_.grid().index_of(msg.cell);
        child_expiry_[child] = sim().now() + cfg_.uplease_duration;
        child_last_leader_[child] = msg.leader;
        if (child_suspected_[child]) {
          child_suspected_[child] = false;
          counters_.add(Counter::kCellResume);
          trace_fd("fd.cell_resume", at,
                   {{"row", static_cast<std::int64_t>(msg.cell.row)},
                    {"col", static_cast<std::int64_t>(msg.cell.col)}});
        }
        if (overlay_.is_suspected(msg.leader)) {
          overlay_.clear_suspected(msg.leader);
        }
        arm_child_watchdog(child);
        return;
      }
      route_control(at, msg, msg.dst_cell, from);
      return;
    }
    case FdMsg::kBeat: {
      if (!(cell_view(at) == msg.cell)) return;  // cross-cell leak
      // Epoch-regression detection, deliberately BEFORE flood dedup: when
      // the very node we believe leads is beating an epoch *behind* our
      // view, either its epoch regressed (state corruption) or ours jumped
      // — both are corrupted states dedup would silently swallow, because
      // the highwater already sits at the newer epoch. Direct neighbors of
      // the leader answer with a kSync carrying the newer view; adopt-if-
      // newer at the leader restores the epoch without an election. Muted
      // per responder between floods to bound the sync traffic.
      if (msg.epoch < epoch_[at] && msg.leader == believed_leader_[at] &&
          msg.leader != at && !link().is_down(at) &&
          sim().now() >= regress_mute_until_[at] &&
          std::find(cell_neighbors_[at].begin(), cell_neighbors_[at].end(),
                    msg.leader) != cell_neighbors_[at].end()) {
        regress_mute_until_[at] = sim().now() + cfg_.heartbeat_period * 0.5;
        counters_.add(Counter::kEpochRegress);
        trace_fd("fd.epoch_regress", at,
                 {{"leader", static_cast<std::uint64_t>(msg.leader)},
                  {"beat_epoch", msg.epoch},
                  {"view_epoch", epoch_[at]}});
        counters_.add(Counter::kSync);
        FdMsg sync;
        sync.kind = FdMsg::kSync;
        sync.cell = msg.cell;
        sync.epoch = epoch_[at];
        sync.leader = believed_leader_[at];
        flood(at, Frame(sync));
      }
      if (msg.epoch < seen_beat_epoch_[at] ||
          (msg.epoch == seen_beat_epoch_[at] &&
           msg.seq <= seen_beat_seq_[at])) {
        return;  // flood duplicate
      }
      seen_beat_epoch_[at] = msg.epoch;
      seen_beat_seq_[at] = msg.seq;
      flood(at, frame);  // forward the fresh beat through the cell
      if (msg.epoch > epoch_[at]) {
        adopt(at, msg.leader, msg.epoch);
      } else if (msg.epoch == epoch_[at]) {
        if (msg.leader == believed_leader_[at]) {
          if (at != msg.leader) renew_lease(at);
        } else if (msg.leader < believed_leader_[at]) {
          // Same-epoch conflict (should not happen in a connected cell):
          // converge deterministically toward the lower id.
          counters_.add(Counter::kConflict);
          adopt(at, msg.leader, msg.epoch);
        }
      } else {
        counters_.add(Counter::kStaleBeat);
        if (believed_leader_[at] == at && !link().is_down(at)) {
          // A deposed leader came back and is beating its old epoch: the
          // current leader answers with the current binding.
          resync(at, msg.cell);
        }
      }
      return;
    }
    case FdMsg::kElect: {
      if (!(cell_view(at) == msg.cell)) return;
      if (msg.epoch <= epoch_[at]) {
        counters_.add(Counter::kStaleElect);
        if (believed_leader_[at] == at) {
          // Electorate is out of date (e.g. missed the claim): re-announce.
          resync(at, msg.cell);
        }
        return;
      }
      bool progressed = false;
      if (msg.epoch > elect_epoch_[at]) {
        // Join the election with our own key, so the winner is the minimum
        // over every live member the flood reaches (the oracle's answer).
        // Exception: a *handoff* election only wants successors that are
        // themselves above the low-water mark — accepting the crown while
        // nearly as drained as the retiree just cascades successions, and
        // every election storm burns the whole cell. A member below the
        // mark still forwards the flood (carrying the best key seen) but
        // keeps its own key out; if nobody qualifies, nobody claims, and
        // the incumbent carries on under its retry cooldown. Crash
        // elections take anyone: a poor leader beats no leader.
        const bool candidate =
            !msg.handoff || cfg_.handoff_low_water <= 0.0 ||
            residual(at) >= cfg_.handoff_low_water;
        elect_epoch_[at] = msg.epoch;
        if (candidate) {
          elect_best_score_[at] = score(at);
          elect_best_residual_[at] = residual(at);
          elect_best_id_[at] = at;
        } else {
          elect_best_score_[at] = msg.score;
          elect_best_residual_[at] = msg.residual;
          elect_best_id_[at] = msg.origin;
          counters_.add(Counter::kHandoffDecline);
        }
        elect_handoff_[at] = msg.handoff;
        counters_.add(Counter::kElectJoin);
        trace_fd("fd.elect", at,
                 {{"row", static_cast<std::int64_t>(msg.cell.row)},
                  {"col", static_cast<std::int64_t>(msg.cell.col)},
                  {"epoch", msg.epoch}});
        progressed = true;
        if (candidate) arm_election_close(at, msg.epoch);
      }
      if (elect_epoch_[at] == msg.epoch &&
          key_less(msg.residual, msg.score, msg.origin,
                   elect_best_residual_[at], elect_best_score_[at],
                   elect_best_id_[at])) {
        elect_best_residual_[at] = msg.residual;
        elect_best_score_[at] = msg.score;
        elect_best_id_[at] = msg.origin;
        progressed = true;
      }
      if (progressed) {
        FdMsg fwd = msg;
        fwd.score = elect_best_score_[at];
        fwd.origin = elect_best_id_[at];
        fwd.residual = elect_best_residual_[at];
        flood(at, Frame(fwd));
      }
      return;
    }
    case FdMsg::kClaim:
    case FdMsg::kSync: {
      if (!(cell_view(at) == msg.cell)) return;
      const bool newer =
          msg.epoch > epoch_[at] ||
          (msg.epoch == epoch_[at] && msg.leader != believed_leader_[at] &&
           msg.leader < believed_leader_[at]);
      if (!newer) return;
      adopt(at, msg.leader, msg.epoch);
      flood(at, frame);
      return;
    }
    case FdMsg::kAudit: {
      if (!(cell_view(at) == msg.cell)) return;
      if (msg.epoch < seen_audit_epoch_[at] ||
          (msg.epoch == seen_audit_epoch_[at] &&
           msg.seq <= seen_audit_seq_[at])) {
        return;  // flood duplicate
      }
      seen_audit_epoch_[at] = msg.epoch;
      seen_audit_seq_[at] = msg.seq;
      flood(at, frame);  // forward the audit through the cell
      // Route scrub rides the audit round: each member validates its own
      // table entries against local knowledge (no-op when uncorrupted).
      const std::size_t fixed = overlay_.repair_routes(at);
      if (fixed > 0) {
        counters_.add(Counter::kRouteRepair, fixed);
        trace_fd("fd.route_repair", at,
                 {{"entries", static_cast<std::uint64_t>(fixed)}});
      }
      // Roster reconciliation rides the audit too: the digest announces
      // what the leader's roster holds, so a member the roster wrongly
      // misses (drop corruption) detects the disagreement locally and
      // reinstates itself. The opposite direction — foreign entries — was
      // scrubbed leader-side before the digest was taken.
      if (membership_ != nullptr && msg.roster_digest != 0 && at != msg.leader) {
        if (msg.roster_digest != membership_->digest(msg.cell)) {
          counters_.add(Counter::kRosterConflict);
        }
        if (!membership_->roster_contains(msg.cell, at)) {
          membership_->roster_insert(msg.cell, at);
          counters_.add(Counter::kRosterHeal);
          trace_fd("fd.roster_heal", at,
                   {{"node", static_cast<std::uint64_t>(at)},
                    {"row", static_cast<std::int64_t>(msg.cell.row)},
                    {"col", static_cast<std::int64_t>(msg.cell.col)},
                    {"why", obs::AttrCode("reinstate")}});
        }
      }
      if (msg.epoch > epoch_[at]) {
        // Our view fell behind (missed claim, regressed epoch): heal.
        counters_.add(Counter::kAuditHeal);
        adopt(at, msg.leader, msg.epoch);
        return;
      }
      if (msg.epoch < epoch_[at]) {
        counters_.add(Counter::kAuditStale);
        if (believed_leader_[at] == at && !link().is_down(at)) {
          resync(at, msg.cell);
        }
        return;
      }
      // Same epoch: PraSLE-style lexicographic reconciliation of views.
      if (msg.leader == believed_leader_[at]) {
        if (at != msg.leader) renew_lease(at);  // the audit doubles as a beat
        return;
      }
      if (believed_leader_[at] == at) {
        // Two live self-believed leaders at one epoch — the corrupted
        // split-brain no beat can break (neither ever expires). Order the
        // contenders by the election key: the better key asserts itself at
        // a strictly higher epoch, the worse one defers to the auditor.
        counters_.add(Counter::kAuditConflict);
        trace_fd("fd.audit_conflict", at,
                 {{"peer", static_cast<std::uint64_t>(msg.leader)},
                  {"epoch", msg.epoch}});
        if (key_less(residual(at), score(at), at, msg.residual, msg.score,
                     msg.leader)) {
          start_election(at);
        } else {
          adopt(at, msg.leader, msg.epoch);
        }
        return;
      }
      // Follower pointing at a third party: the auditor is live and
      // serving, so its view wins the reconciliation.
      counters_.add(Counter::kAuditHeal);
      trace_fd("fd.audit_heal", at,
               {{"leader", static_cast<std::uint64_t>(msg.leader)},
                {"was", static_cast<std::uint64_t>(believed_leader_[at])},
                {"epoch", msg.epoch}});
      adopt(at, msg.leader, msg.epoch);
      return;
    }
    case FdMsg::kJoin: {
      if (membership_ == nullptr) return;
      if (believed_leader_[at] == at && cell_view(at) == msg.cell) {
        // The adopter cell's leader: acknowledge the orphan (its roster
        // move already happened through the shared view; reinstate is for
        // the case where a racing audit scrub dropped it), refresh the
        // cell tree so the newcomer relays, and — when the orphan was its
        // old cell's last reachable member — serve that vacated virtual
        // node by proxy so the grid keeps full coverage.
        counters_.add(Counter::kAdoptAccept);
        trace_fd("fd.adopt_accept", at,
                 {{"node", static_cast<std::uint64_t>(msg.origin)},
                  {"from_row", static_cast<std::int64_t>(msg.src_cell.row)},
                  {"from_col", static_cast<std::int64_t>(msg.src_cell.col)},
                  {"row", static_cast<std::int64_t>(msg.cell.row)},
                  {"col", static_cast<std::int64_t>(msg.cell.col)}});
        if (!membership_->roster_contains(msg.cell, msg.origin)) {
          membership_->roster_insert(msg.cell, msg.origin);
        }
        overlay_.refresh_cell_tree(msg.cell);
        if (msg.last && overlay_.grid().contains(msg.src_cell)) {
          adopt_bind(at, msg.src_cell);
        }
        return;
      }
      // Not the adopter leader yet: climb toward it.
      route_control(at, msg, msg.cell, from);
      return;
    }
  }
}

std::vector<core::GridCoord> FailureDetector::unconverged_cells() const {
  std::vector<core::GridCoord> out;
  net::LinkLayer& link = overlay_.link();
  const std::size_t n = link.graph().node_count();
  for (const core::GridCoord& c : overlay_.grid().all_coords()) {
    net::NodeId leader = net::kNoNode;
    std::uint64_t epoch = 0;
    bool any = false;
    bool agreed = true;
    for (net::NodeId i = 0; i < n; ++i) {
      if (link.is_down(i) || !(cell_view(i) == c)) continue;
      if (!any) {
        any = true;
        leader = believed_leader_[i];
        epoch = epoch_[i];
      } else if (believed_leader_[i] != leader || epoch_[i] != epoch) {
        agreed = false;
        break;
      }
    }
    if (!any) continue;  // no live members: nothing to agree on
    if (!agreed || leader == net::kNoNode || link.is_down(leader) ||
        believed_leader_[leader] != leader) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<core::GridCoord> FailureDetector::membership_violations() const {
  std::vector<core::GridCoord> out;
  if (membership_ == nullptr) return out;
  net::LinkLayer& link = overlay_.link();
  const std::size_t side = mapper().grid_side();
  std::vector<bool> bad(side * side, false);
  // Zero dark cells: every virtual node must be served by a live physical
  // node once adoption has settled.
  for (const core::GridCoord& c : overlay_.grid().all_coords()) {
    const net::NodeId bound = overlay_.bound_node(c);
    if (bound == net::kNoNode || link.is_down(bound)) {
      bad[overlay_.grid().index_of(c)] = true;
    }
  }
  // Belief/roster inverse over live nodes: a live believer must be listed
  // where it believes, and a live listee must believe where it is listed.
  // Dead nodes' frozen soft state is exempt (nothing will ever act on it).
  const std::size_t n = link.graph().node_count();
  for (net::NodeId i = 0; i < n; ++i) {
    if (link.is_down(i)) continue;
    const core::GridCoord c = membership_->cell_of(i);
    if (!membership_->roster_contains(c, i)) {
      bad[overlay_.grid().index_of(c)] = true;
    }
  }
  for (const core::GridCoord& c : overlay_.grid().all_coords()) {
    for (net::NodeId r : membership_->roster(c)) {
      if (!link.is_down(r) && !(membership_->cell_of(r) == c)) {
        bad[overlay_.grid().index_of(c)] = true;
      }
    }
  }
  for (const core::GridCoord& c : overlay_.grid().all_coords()) {
    if (bad[overlay_.grid().index_of(c)]) out.push_back(c);
  }
  return out;
}

bool FailureDetector::inject_corruption(net::NodeId node,
                                        sim::CorruptionTarget target) {
  if (!running_) return false;
  if (link().is_down(node)) return false;  // down nodes hold no soft state
  if (target == sim::CorruptionTarget::kMembership && membership_ == nullptr) {
    return false;  // no live membership state to scramble
  }
  sim::Rng& rng = sim().rng();
  const core::GridCoord cell = cell_view(node);
  counters_.add(Counter::kCorrupt);
  trace_fd("fd.corrupt", node,
           {{"target", sim::trace_code(target)},
            {"row", static_cast<std::int64_t>(cell.row)},
            {"col", static_cast<std::int64_t>(cell.col)},
            {"bound", stabilization_bound()}});
  switch (target) {
    case sim::CorruptionTarget::kEpoch: {
      // Half the draws regress the epoch below everything the node has
      // seen, half jump it ahead of the cell. Both directions drag the
      // flood-dedup highwaters along so the node's filter is consistent
      // with its (wrong) view — the adversary controls the whole word.
      const std::uint64_t e = epoch_[node];
      if (e > 0 && rng.uniform() < 0.5) {
        epoch_[node] = rng.below(e);  // regress into [0, e)
      } else {
        epoch_[node] = e + 1 + rng.below(4);  // jump ahead by 1..4
      }
      seen_beat_epoch_[node] = epoch_[node];
      seen_beat_seq_[node] = 0;
      seen_audit_epoch_[node] = epoch_[node];
      seen_audit_seq_[node] = 0;
      return true;
    }
    case sim::CorruptionTarget::kLeader: {
      // Re-point the node's leader belief — at itself (a usurper that
      // beats, audits, and never expires its own lease) or at a random
      // cell neighbor (a phantom leader that never renews the lease).
      const auto& nbrs = cell_neighbors_[node];
      net::NodeId pick = node;
      if (!nbrs.empty() && rng.uniform() >= 0.35) {
        pick = nbrs[rng.below(nbrs.size())];
      }
      believed_leader_[node] = pick;
      return true;
    }
    case sim::CorruptionTarget::kRoutes: {
      overlay_.scramble_routes(node, rng);
      return true;
    }
    case sim::CorruptionTarget::kLeases: {
      // Scramble the lease clock (anywhere inside two lease windows) and
      // plant one false suspicion, so routing wrongly avoids a live
      // neighbor until its next control frame proves it alive.
      lease_expiry_[node] = sim().now() + rng.uniform(0.0, 2.0 * cfg_.lease_duration);
      arm_watchdog(node);
      const auto& nbrs = cell_neighbors_[node];
      if (!nbrs.empty()) {
        const net::NodeId v = nbrs[rng.below(nbrs.size())];
        if (!overlay_.is_suspected(v)) {
          counters_.add(Counter::kFalseSuspect);
          overlay_.on_hop_give_up(node, v);
        }
      }
      return true;
    }
    case sim::CorruptionTarget::kMembership: {
      // Half the strikes defect the victim's cell belief to a random
      // adjacent in-grid cell (the node starts filtering, flooding, and
      // leasing as a member of the wrong cell until heal_belief snaps it
      // back); the other half scramble its cell's roster — drop a random
      // listed member, or splice in a random foreigner — which the next
      // audit round's leader scrub + digest reinstate must repair.
      if (rng.uniform() < 0.5) {
        std::vector<core::GridCoord> adjacent;
        for (core::Direction d : core::kAllDirections) {
          const core::GridCoord c = core::GridTopology::step(cell, d);
          if (overlay_.grid().contains(c)) adjacent.push_back(c);
        }
        const core::GridCoord to = adjacent[rng.below(adjacent.size())];
        move_belief(node, to);
        adopted_[node] = false;  // a scrambled belief, not an adoption
        counters_.add(Counter::kDefect);
        trace_fd("fd.defect", node,
                 {{"from_row", static_cast<std::int64_t>(cell.row)},
                  {"from_col", static_cast<std::int64_t>(cell.col)},
                  {"row", static_cast<std::int64_t>(to.row)},
                  {"col", static_cast<std::int64_t>(to.col)},
                  {"bound", stabilization_bound()}});
      } else {
        const std::vector<net::NodeId>& roster = membership_->roster(cell);
        net::NodeId victim = net::kNoNode;
        bool dropped = false;
        if (!roster.empty() && rng.uniform() < 0.5) {
          victim = roster[rng.below(roster.size())];
          membership_->roster_drop(cell, victim);
          dropped = true;
        } else {
          // Splice a foreigner: any node not already listed. Bounded scan
          // from a random start keeps the draw seeded and O(n).
          const std::size_t n = link().graph().node_count();
          const std::size_t start = rng.below(n);
          for (std::size_t k = 0; k < n; ++k) {
            const net::NodeId cand =
                static_cast<net::NodeId>((start + k) % n);
            if (!membership_->roster_contains(cell, cand)) {
              victim = cand;
              break;
            }
          }
          if (victim == net::kNoNode) return true;  // roster lists everyone
          membership_->roster_insert(cell, victim);
        }
        counters_.add(Counter::kRosterCorrupt);
        trace_fd("fd.roster_corrupt", node,
                 {{"node", static_cast<std::uint64_t>(victim)},
                  {"row", static_cast<std::int64_t>(cell.row)},
                  {"col", static_cast<std::int64_t>(cell.col)},
                  {"dropped", static_cast<std::uint64_t>(dropped ? 1 : 0)},
                  {"bound", stabilization_bound()}});
      }
      return true;
    }
  }
  return false;
}

std::vector<core::GridCoord> FailureDetector::split_brains() const {
  std::vector<core::GridCoord> out;
  net::LinkLayer& link = overlay_.link();
  const std::size_t side = mapper().grid_side();
  // cell index -> (epoch, live self-believed leader) pairs seen
  std::vector<std::vector<std::pair<std::uint64_t, net::NodeId>>> seen(side *
                                                                       side);
  const std::size_t n = link.graph().node_count();
  for (net::NodeId i = 0; i < n; ++i) {
    if (link.is_down(i)) continue;
    if (believed_leader_[i] != i) continue;
    const core::GridCoord c = cell_view(i);
    const std::size_t ci = overlay_.grid().index_of(c);
    bool dup = false;
    for (auto& [ep, node] : seen[ci]) {
      if (ep == epoch_[i] && node != i) dup = true;
    }
    if (dup) {
      out.push_back(c);
    } else {
      seen[ci].push_back({epoch_[i], i});
    }
  }
  return out;
}

}  // namespace wsn::emulation
