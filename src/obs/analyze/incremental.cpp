#include "obs/analyze/incremental.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <variant>

namespace wsn::obs::analyze {

namespace {

/// The one table of which event names the convergence checks react to.
/// A name may sit in several classes.
enum NameClass : unsigned {
  /// An external fault. It restarts the quiescence clock of both the
  /// self-stabilization and the membership check.
  kDisturbance = 1u << 0,
  /// Leadership churn, which must stop by the stabilization deadline (an
  /// fd.claim only when unplanned: a proactive handoff is not churn).
  kLeadershipChurn = 1u << 1,
  /// Membership repair, which must stop by the reconciliation deadline.
  kMembershipChurn = 1u << 2,
  /// Any view still moving, which keeps an fd.corrupt strike from being
  /// quiet: it times CheckReport::max_reconverge_latency.
  kStrikeChurn = 1u << 3,
};

struct ClassedName {
  EventName name;
  unsigned classes;
};

constexpr ClassedName kNameClasses[] = {
    {"fault.crash", kDisturbance},
    {"fault.recover", kDisturbance},
    {"fault.outage_end", kDisturbance},
    {"fault.burst_end", kDisturbance},
    {"energy.depleted", kDisturbance},
    {"fd.elect", kLeadershipChurn | kStrikeChurn},
    {"fd.claim", kLeadershipChurn | kStrikeChurn},
    {"fd.lease_expire", kLeadershipChurn | kStrikeChurn},
    {"fd.audit_conflict", kLeadershipChurn | kStrikeChurn},
    {"fd.epoch_regress", kLeadershipChurn | kStrikeChurn},
    {"fd.audit_heal", kStrikeChurn},
    {"fd.adopt", kStrikeChurn},
    {"fd.adopt_bind", kMembershipChurn | kStrikeChurn},
    {"fd.member_heal", kMembershipChurn | kStrikeChurn},
    {"fd.roster_heal", kMembershipChurn | kStrikeChurn},
    {"fd.adopt_accept", kMembershipChurn},
    {"fd.stranded", kMembershipChurn},
};

/// kNameClasses indexed by name id, so classifying an event is one load.
constexpr auto kClassesOf = [] {
  std::array<unsigned, EventName::kCount> by_id{};
  for (const ClassedName& c : kNameClasses) by_id[c.name.id()] |= c.classes;
  return by_id;
}();

/// How the checker reads each attribute it keys state by. Cells and an
/// accepted orphan are signed, since -1 reads as "none"; ARQ endpoints,
/// seqs, epochs and hop counts are unsigned.
enum IdKind : unsigned char { kNotId, kSignedId, kUnsignedId };

struct KeyKind {
  AttrKey key;
  IdKind kind;
};

constexpr KeyKind kIdKeys[] = {
    {"src", kUnsignedId},   {"dst", kUnsignedId},   {"seq", kUnsignedId},
    {"epoch", kUnsignedId}, {"hops", kUnsignedId},  {"vhops", kUnsignedId},
    {"node", kSignedId},    {"row", kSignedId},     {"col", kSignedId},
    {"from_row", kSignedId}, {"from_col", kSignedId},
};

/// kIdKeys indexed by key id.
constexpr auto kIdKindOf = [] {
  std::array<IdKind, AttrKey::kCount> by_id{};
  for (const KeyKind& k : kIdKeys) by_id[k.key.id()] = k.kind;
  return by_id;
}();

/// Whether `a` is no id, or an id holding an integer of its kind.
bool id_ok(const Attr& a) {
  switch (kIdKindOf[a.key.id()]) {
    case kSignedId:
      return int_value<std::int64_t>(a.value).has_value();
    case kUnsignedId:
      return int_value<std::uint64_t>(a.value).has_value();
    case kNotId:
      break;
  }
  return true;
}

/// Ids of events StreamingChecker::feed has vetted with id_ok: an absent
/// unsigned id reads as 0 and an absent signed one as -1. The flow fold
/// reads one id, a send's announced hop count, which only the checker
/// compares; FlowCollector's other users print nothing that rests on it.
std::uint64_t unsigned_id(const TraceEvent& ev, AttrKey key) {
  return attr_int<std::uint64_t>(ev, key).value_or(0);
}
std::int64_t signed_id(const TraceEvent& ev, AttrKey key) {
  return attr_int<std::int64_t>(ev, key, -1).value_or(-1);
}

bool close_rel(double a, double b, double rel) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= rel * std::max(scale, 1.0);
}

std::string flow_tag(const Flow& f) {
  return "flow " + std::to_string(f.id);
}

std::string name_of(EventName name) { return std::string(name.str()); }

/// `v` as a finding prints it.
std::string value_text(const AttrValue& v) {
  return std::visit(
      [](auto x) -> std::string {
        if constexpr (std::is_same_v<decltype(x), AttrCode>) {
          return std::string(x.str());
        } else if constexpr (std::is_same_v<decltype(x), double>) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%.17g", x);
          return buf;
        } else {
          return std::to_string(x);
        }
      },
      v);
}

/// Appends every structural violation of one retired flow to `issues`.
void append_flow_issues(const Flow& f, std::vector<std::string>& issues) {
  if (f.delivered && !f.has_send) {
    issues.push_back(flow_tag(f) + ": delivery without a send");
    return;
  }
  if (f.has_send && !f.delivered && !f.gave_up && !f.dropped &&
      !(f.layer == Category::kVirtual && f.self_send)) {
    // A give-up or recorded drop explains the missing delivery; anything
    // else is a black hole.
    issues.push_back(flow_tag(f) + ": sent but never delivered");
    return;
  }
  if (!f.has_send) {
    // Hop/tx records with neither send nor deliver: truncated capture.
    issues.push_back(flow_tag(f) + ": fragments without send");
    return;
  }
  if (f.delivered && f.deliver_time < f.send_time) {
    issues.push_back(flow_tag(f) + ": delivered before sent");
  }
  if (f.acausal_relay) {
    issues.push_back(flow_tag(f) + ": acausal hop at node " +
                     std::to_string(*f.acausal_relay));
  }
  if (f.layer == Category::kVirtual && !f.self_send) {
    if (f.hops != f.expected_hops) {
      issues.push_back(flow_tag(f) + ": announced " +
                       std::to_string(f.expected_hops) + " hops, traced " +
                       std::to_string(f.hops));
    } else if (f.delivered) {
      // Exact decomposition: end-to-end latency == sum of hop spans, in
      // both congestion modes (serialized hops chain depart -> start).
      if (!close_rel(f.latency(), f.span, 1e-9)) {
        issues.push_back(flow_tag(f) +
                         ": latency does not decompose into hops");
      }
    }
  }
}

/// Folds one relay crossing, from `start` to `depart` with `wait` of it
/// spent queueing, into `f`'s sums.
void add_hop(Flow& f, std::int64_t relay, double start, double depart,
             double wait) {
  const double transmit = depart - start - wait;
  if (!f.acausal_relay && (wait < 0.0 || transmit < 0.0 || depart < start)) {
    f.acausal_relay = relay;
  }
  ++f.hops;
  f.wait += wait;
  f.transmit += transmit;
  f.span += depart - start;
}

/// The event-into-flow fold — the one place that knows how raw events map
/// onto Flow fields.
void fold_event(Flow& f, const TraceEvent& ev) {
  switch (ev.category) {
    case Category::kVirtual:
    case Category::kOverlay:
      if (ev.name == "send" || ev.name == "self_send") {
        f.has_send = true;
        f.layer = ev.category;
        f.src_node = ev.node;
        f.send_time = ev.time;
        f.self_send = ev.name == "self_send";
        f.size = attr_num(ev, "size", 1.0);
        f.expected_hops = unsigned_id(
            ev, ev.category == Category::kOverlay ? AttrKey("vhops")
                                                  : AttrKey("hops"));
      } else if (ev.name == "deliver") {
        f.delivered = true;
        f.dst_node = ev.node;
        f.deliver_time = ev.time;
        if (f.layer == Category::kVirtual &&
            ev.category == Category::kOverlay) {
          f.layer = Category::kOverlay;  // deliver seen before its send
        }
      } else if (ev.name == "hop") {
        add_hop(f, ev.node, ev.time, attr_num(ev, "depart"),
                attr_num(ev, "wait"));
      } else if (ev.name == "drop") {
        f.dropped = true;
      }
      break;
    case Category::kLink:
      // Physical transmissions serving an overlay send become its hops.
      if (ev.name == "unicast" || ev.name == "broadcast") {
        ++f.link_tx;
        add_hop(f, ev.node, ev.time, attr_num(ev, "arrive", ev.time), 0.0);
      } else if (ev.name == "deliver") {
        // The hop was recorded at its unicast; only count the receive so
        // rx/tx pairing can be checked per flow.
        ++f.link_rx;
      } else if (ev.name == "drop") {
        f.dropped = true;
      }
      break;
    case Category::kReliability:
      if (ev.name == "rel.give_up") f.gave_up = true;
      break;
    default:
      break;  // protocol/bench/app events carry no flow structure
  }
}

}  // namespace

void FlowCollector::feed(const TraceEvent& ev) {
  if (ev.flow != 0 && ev.category != Category::kCollective) {
    LiveFlow* lf;
    const auto it = index_.find(ev.flow);
    if (it == index_.end()) {
      queue_.emplace_back();
      lf = &queue_.back();
      lf->flow.id = ev.flow;
      index_.emplace(ev.flow, lf);
      ++flows_seen_;
    } else {
      lf = it->second;
    }
    fold_event(lf->flow, ev);
    lf->last_touch = ev.time;
  }
  // Only the front of the creation queue retires, so retirement order ==
  // creation order regardless of how flows interleave. A long-lived front
  // flow delays those behind it — that trades a little memory for output
  // whose order does not depend on retirement.
  while (!queue_.empty() &&
         queue_.front().last_touch + kRetireLag < ev.time) {
    LiveFlow& front = queue_.front();
    index_.erase(front.flow.id);
    on_retire_(front.flow);
    queue_.pop_front();
  }
}

void FlowCollector::finish() {
  while (!queue_.empty()) {
    LiveFlow& front = queue_.front();
    index_.erase(front.flow.id);
    on_retire_(front.flow);
    queue_.pop_front();
  }
}

StreamingChecker::StreamingChecker()
    : flows_([this](Flow& f) { retire(f); }) {}

std::size_t StreamingChecker::LaneHash::operator()(const Lane& lane) const {
  std::uint64_t h = 0;
  for (const std::uint64_t word : {lane.src, lane.dst, lane.seq_high}) {
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

void StreamingChecker::retire(Flow& f) {
  ++report_.flows_checked;
  append_flow_issues(f, report_.issues);
  if (f.link_rx > 0 && f.link_tx == 0) {
    report_.issues.push_back(flow_tag(f) +
                             ": link receive without any transmission");
  }
}

void StreamingChecker::feed(const TraceEvent& ev) {
  ++report_.events_seen;
  // State is keyed by ids, so an event whose id is no integer of its kind
  // is reported and leaves no state behind.
  for (const Attr& a : ev.attrs) {
    if (id_ok(a)) continue;
    report_.issues.push_back(name_of(ev.name) + " at t=" +
                             std::to_string(ev.time) + " (node " +
                             std::to_string(ev.node) + "): " +
                             std::string(a.key.str()) + "=" +
                             value_text(a.value) + " is not an integer id");
    return;
  }
  if (const std::optional<RadioEnergy> e = radio_charge(ev)) {
    (ev.category == Category::kLink ? link_energy_ : vnet_energy_) += *e;
  }
  flows_.feed(ev);
  switch (ev.category) {
    case Category::kCollective:
      feed_collective(ev);
      break;
    case Category::kReliability:
      feed_reliability(ev);
      expire_rel_state(ev.time);
      break;
    case Category::kLink:
    case Category::kVirtual:
      feed_depletion_link(ev);
      expire_rel_state(ev.time);
      break;
    default:
      break;
  }
}

void StreamingChecker::feed_collective(const TraceEvent& ev) {
  if (ev.flow == 0) return;
  if (ev.phase == 'B') {
    ++report_.collectives_checked;
    began_.insert(ev.flow);
    const auto [it, fresh] = open_collectives_.try_emplace(ev.flow);
    if (!fresh) {
      // A reused id buries the earlier span unclosed.
      report_.issues.push_back("collective " + std::to_string(ev.flow) +
                               " (" + name_of(it->second.name) +
                               "): never completed");
    }
    it->second = {ev.name, ev.time};
  } else if (ev.phase == 'E') {
    const auto it = open_collectives_.find(ev.flow);
    if (it == open_collectives_.end()) {
      if (began_.count(ev.flow) == 0) {
        report_.issues.push_back("collective " + std::to_string(ev.flow) +
                                 ": completion without a start");
      }
      return;
    }
    if (ev.time < it->second.begin) {
      report_.issues.push_back("collective " + std::to_string(ev.flow) +
                               " (" + name_of(it->second.name) +
                               "): ends before it begins");
    }
    open_collectives_.erase(it);
  }
}

std::uint64_t StreamingChecker::exchange_key(const TraceEvent& ev) {
  const std::uint64_t seq = unsigned_id(ev, "seq");
  const Lane lane{unsigned_id(ev, "src"), unsigned_id(ev, "dst"), seq >> 32};
  const std::uint64_t id =
      lanes_.try_emplace(lane, lanes_.size()).first->second;
  return id << 32 | (seq & 0xffffffffu);
}

void StreamingChecker::feed_reliability(const TraceEvent& ev) {
  const auto cell_epoch = [&ev] {
    return CellEpoch{{signed_id(ev, "row"), signed_id(ev, "col")},
                     unsigned_id(ev, "epoch")};
  };
  // Issue text only: "src>dst#seq" and "fd.claim row,col@epoch".
  const auto exchange_tag = [&ev] {
    const auto word = [&ev](AttrKey key) {
      return std::to_string(unsigned_id(ev, key));
    };
    return word("src") + ">" + word("dst") + "#" + word("seq");
  };
  const auto claim_tag = [](const CellEpoch& k) {
    return "fd.claim " + std::to_string(k.cell.row) + "," +
           std::to_string(k.cell.col) + "@" + std::to_string(k.epoch);
  };

  // Self-stabilization bookkeeping: disturbances extend the quiescence
  // deadline; churn candidates must be buffered — only the deadline known
  // at finish() separates legitimate reaction from failure to re-converge.
  // fd.corrupt itself is folded in the main chain below.
  const unsigned classes = kClassesOf[ev.name.id()];
  if ((classes & kDisturbance) != 0) {
    stab_disturb_ = std::max(stab_disturb_, ev.time);
  }
  if ((classes & kLeadershipChurn) != 0 && attr_num(ev, "planned") == 0.0) {
    stab_churn_.push_back({ev.name, ev.node, ev.time});
  }
  if ((classes & kStrikeChurn) != 0) {
    for (Strike& s : strikes_) {
      if (ev.time > s.at && ev.time <= s.at + s.bound) {
        s.quiet = std::max(s.quiet, ev.time);
      }
    }
  }

  // Self-healing membership bookkeeping: the ledger buffers strikes,
  // adoptions and repair churn until finish(), when the reconciliation
  // deadline is final.
  membership_.feed(ev, classes);

  if (ev.name == "rel.send") {
    const std::uint64_t key = exchange_key(ev);
    sent_[key] = ev.time;
    sent_queue_.emplace_back(key, ev.time);
  } else if (ev.name == "rel.retransmit" || ev.name == "rel.give_up" ||
             ev.name == "rel.ack" || ev.name == "rel.dup") {
    const std::uint64_t key = exchange_key(ev);
    const auto it = sent_.find(key);
    if (it == sent_.end()) {
      report_.issues.push_back(name_of(ev.name) + " " + exchange_tag() +
                               ": no matching rel.send");
    } else {
      // Keep the exchange alive while the ARQ is still talking about it.
      it->second = ev.time;
      sent_queue_.emplace_back(key, ev.time);
    }
    if (ev.name == "rel.give_up") ++give_ups_;
  } else if (ev.name == "fault.crash" && ev.node >= 0) {
    crashed_.insert(ev.node);
  } else if (ev.name == "fault.recover" && ev.node >= 0) {
    crashed_.erase(ev.node);
  } else if (ev.name == "fd.elect" || ev.name == "fd.handoff") {
    elections_.insert(cell_epoch());
  } else if (ev.name == "fd.claim") {
    const CellEpoch key = cell_epoch();
    if (!claimed_.insert(key).second) {
      report_.issues.push_back(claim_tag(key) +
                               ": duplicate claim for this cell and epoch "
                               "(split-brain)");
    }
    if (elections_.find(key) == elections_.end()) {
      report_.issues.push_back(claim_tag(key) +
                               ": no preceding fd.elect for this epoch");
    }
    const auto it = last_claim_epoch_.find(key.cell);
    if (it != last_claim_epoch_.end() && key.epoch <= it->second) {
      report_.issues.push_back(
          claim_tag(key) + ": epoch not above the cell's last claim (" +
          std::to_string(it->second) + ")");
    }
    last_claim_epoch_[key.cell] = key.epoch;
  } else if (ev.name == "fd.corrupt") {
    const double bound = attr_num(ev, "bound");
    strikes_.push_back({ev.time, bound, ev.time});
    stab_bound_ = std::max(stab_bound_, bound);
    stab_disturb_ = std::max(stab_disturb_, ev.time);
  } else if (ev.name == "energy.depleted") {
    const double budget = attr_num(ev, "budget", -1.0);
    const double spent = attr_num(ev, "spent", -1.0);
    if (!depleted_at_.emplace(ev.node, ev.time).second) {
      report_.issues.push_back("node " + std::to_string(ev.node) +
                               ": duplicate energy.depleted at t=" +
                               std::to_string(ev.time));
    }
    if (spent + 1e-9 < budget) {
      report_.issues.push_back(
          "node " + std::to_string(ev.node) + ": energy.depleted with spent " +
          std::to_string(spent) + " below budget " + std::to_string(budget));
    }
  }
}

void StreamingChecker::feed_depletion_link(const TraceEvent& ev) {
  if (ev.name == "deliver" && crashed_.count(ev.node) != 0) {
    report_.issues.push_back("node " + std::to_string(ev.node) +
                             ": delivery at t=" + std::to_string(ev.time) +
                             " inside its crash window");
  }
  if (ev.category != Category::kLink) return;
  const auto it = depleted_at_.find(ev.node);
  if (it == depleted_at_.end() || ev.time <= it->second) return;
  if (ev.name == "broadcast" || ev.name == "unicast") {
    report_.issues.push_back(
        "node " + std::to_string(ev.node) + ": link transmission at t=" +
        std::to_string(ev.time) + " after depletion at t=" +
        std::to_string(it->second));
  } else if (ev.name == "deliver") {
    report_.issues.push_back(
        "node " + std::to_string(ev.node) + ": delivery at t=" +
        std::to_string(ev.time) + " after depletion at t=" +
        std::to_string(it->second));
  }
}

void StreamingChecker::expire_rel_state(double watermark) {
  while (!sent_queue_.empty() &&
         sent_queue_.front().second + kRetireLag < watermark) {
    const auto& [key, touch] = sent_queue_.front();
    const auto it = sent_.find(key);
    // Erase only if no later touch re-enqueued the key.
    if (it != sent_.end() && it->second <= touch) sent_.erase(it);
    sent_queue_.pop_front();
  }
}

void StreamingChecker::MembershipLedger::feed(const TraceEvent& ev,
                                              unsigned classes) {
  if ((classes & kDisturbance) != 0) {
    last_disturbance = std::max(last_disturbance, ev.time);
  }
  if ((classes & kMembershipChurn) != 0) {
    churn.push_back({ev.name, ev.node, ev.time});
  }
  if (ev.name == "fd.defect" || ev.name == "fd.roster_corrupt") {
    bound = std::max(bound, attr_num(ev, "bound"));
    last_disturbance = std::max(last_disturbance, ev.time);
    ++strikes;
  } else if (ev.name == "fd.adopt") {
    // An adoption is itself a reconfiguration: the join, accept, bind and
    // roster repair it provokes are legitimate within one more bound.
    bound = std::max(bound, attr_num(ev, "bound"));
    last_disturbance = std::max(last_disturbance, ev.time);
    adoptions.push_back({ev.node, signed_id(ev, "row"), signed_id(ev, "col"),
                         signed_id(ev, "from_row"), signed_id(ev, "from_col"),
                         attr_num(ev, "last") != 0.0, ev.time});
  } else if (ev.name == "fd.adopt_accept") {
    accepts.push_back({signed_id(ev, "node"), signed_id(ev, "row"),
                       signed_id(ev, "col"), ev.time});
  } else if (ev.name == "fd.adopt_bind") {
    binds.push_back({signed_id(ev, "row"), signed_id(ev, "col"), ev.time});
  }
}

void StreamingChecker::MembershipLedger::resolve(
    std::vector<std::string>& issues) const {
  if (strikes == 0 && adoptions.empty()) return;  // vacuous

  const double deadline = last_disturbance + bound;
  for (const ChurnEvent& c : churn) {
    if (c.time <= deadline) continue;
    issues.push_back(name_of(c.name) + " at t=" + std::to_string(c.time) +
                     " (node " + std::to_string(c.node) +
                     "): membership churn after the reconciliation deadline "
                     "t=" + std::to_string(deadline));
  }

  // Adoption pairing: each accept consumes the earliest unmatched adoption
  // of the same orphan into the same cell inside its window.
  std::vector<bool> accepted(adoptions.size(), false);
  for (const Accept& ac : accepts) {
    for (std::size_t i = 0; i < adoptions.size(); ++i) {
      const Adoption& a = adoptions[i];
      if (accepted[i] || a.node != ac.node || a.row != ac.row ||
          a.col != ac.col) {
        continue;
      }
      if (ac.time + 1e-9 < a.time || ac.time > a.time + bound) continue;
      accepted[i] = true;
      break;
    }
  }
  for (std::size_t i = 0; i < adoptions.size(); ++i) {
    const Adoption& a = adoptions[i];
    const std::string tag =
        "fd.adopt node " + std::to_string(a.node) + " into cell (" +
        std::to_string(a.row) + "," + std::to_string(a.col) + ") at t=" +
        std::to_string(a.time);
    if (!accepted[i]) {
      issues.push_back(tag + ": no fd.adopt_accept from the adopter cell "
                             "within bound " + std::to_string(bound));
    }
    if (!a.last) continue;
    bool rebound = false;
    for (const Bind& b : binds) {
      if (b.row == a.from_row && b.col == a.from_col &&
          b.time <= a.time + bound) {
        rebound = true;
        break;
      }
    }
    if (!rebound) {
      issues.push_back(tag + ": vacated cell (" + std::to_string(a.from_row) +
                       "," + std::to_string(a.from_col) +
                       ") never re-bound to a proxy leader (dark cell)");
    }
  }
}

CheckReport StreamingChecker::finish(const JsonValue* metrics_snapshot) {
  flows_.finish();

  // Deterministic order for the still-open collectives: begin time, id.
  std::vector<std::pair<std::uint64_t, const OpenCollective*>> open;
  open.reserve(open_collectives_.size());
  for (const auto& [id, oc] : open_collectives_) open.emplace_back(id, &oc);
  std::sort(open.begin(), open.end(), [](const auto& a, const auto& b) {
    return a.second->begin != b.second->begin
               ? a.second->begin < b.second->begin
               : a.first < b.first;
  });
  for (const auto& [id, oc] : open) {
    report_.issues.push_back("collective " + std::to_string(id) + " (" +
                             name_of(oc->name) + "): never completed");
  }

  // Self-stabilization: with the final quiescence deadline known, re-filter
  // the buffered churn. Vacuous without an fd.corrupt strike.
  for (const Strike& s : strikes_) {
    report_.max_reconverge_latency =
        std::max(report_.max_reconverge_latency, s.quiet - s.at);
  }
  if (!strikes_.empty()) {
    const double deadline = stab_disturb_ + stab_bound_;
    for (const ChurnEvent& ce : stab_churn_) {
      if (ce.time <= deadline) continue;
      report_.issues.push_back(
          name_of(ce.name) + " at t=" + std::to_string(ce.time) + " (node " +
          std::to_string(ce.node) +
          "): leadership churn after the stabilization deadline t=" +
          std::to_string(deadline));
    }
  }

  // Self-healing membership: the ledger resolves with its final deadline
  // and bound.
  membership_.resolve(report_.issues);

  if (metrics_snapshot != nullptr) {
    // Energy conservation: the incrementally accumulated totals against
    // the ledger snapshot.
    auto compare = [&](const char* section, const RadioEnergy& layer) {
      const JsonValue* sec = metrics_snapshot->find(section);
      if (sec == nullptr) return;
      for (const char* field : {"tx", "rx"}) {
        const JsonValue* v = sec->find(field);
        if (v == nullptr) continue;
        const double live = v->number();
        const double traced =
            std::string(field) == "tx" ? layer.tx : layer.rx;
        if (!close_rel(live, traced, 1e-9)) {
          report_.issues.push_back(
              std::string(section) + "." + field + ": ledger " +
              std::to_string(live) + " != trace-derived " +
              std::to_string(traced));
        }
      }
    };
    compare("vnet.energy", vnet_energy_);
    compare("link.energy", link_energy_);

    if (const JsonValue* sec = metrics_snapshot->find("arq.counters")) {
      const JsonValue* v = sec->find("arq.give_up");
      const auto counted =
          v != nullptr ? snapshot_count(*v, "arq.give_up", report_.issues)
                       : std::optional<std::uint64_t>(0);
      if (counted && *counted != give_ups_) {
        report_.issues.push_back(
            "arq.give_up counter " + std::to_string(*counted) + " != " +
            std::to_string(give_ups_) + " rel.give_up trace events");
      }
    }

    const CheckReport cap = check_capture(*metrics_snapshot);
    report_.issues.insert(report_.issues.end(), cap.issues.begin(),
                          cap.issues.end());
  }
  return report_;
}

}  // namespace wsn::obs::analyze
