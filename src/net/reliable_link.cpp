#include "net/reliable_link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/profiler.h"

namespace wsn::net {

namespace {

// Retransmit timing. Duplicate suppression relies on every timeout
// outlasting a frame's airtime (see reliable_link.h).
constexpr double kRtoFactor = 3.0;  // first timeout, in data+ack round trips
constexpr double kMinRto = 1.0;     // floor of the first timeout
constexpr double kJitter = 0.25;    // seeded stretch, up to 25%, per timeout
constexpr double kAckSize = 0.25;   // ack airtime/energy, in data units

// The wire tag of a frame (see reliable_link.h).
std::uint64_t data_tag(std::uint64_t seq) { return seq << 1; }
std::uint64_t ack_tag(std::uint64_t seq) { return seq << 1 | 1; }

}  // namespace

ReliableChannel::ReliableChannel(LinkLayer& link, ReliableConfig cfg)
    : link_(link), cfg_(cfg), receivers_(link.graph().node_count()),
      pairs_(link.graph().node_count()) {
  for (NodeId i = 0; i < link_.graph().node_count(); ++i) {
    link_.set_receiver(i, [this, i](const Packet& pkt) { handle(i, pkt); });
  }
}

void ReliableChannel::trace_rel(obs::EventName name, NodeId src, NodeId dst,
                                std::uint64_t seq, std::uint64_t flow,
                                NodeId node, std::uint32_t attempts) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Category::kReliability)) return;
  tr.emit({link_.simulator().now(), static_cast<std::int64_t>(node),
           obs::Category::kReliability, 'i', name, flow,
           {{"src", static_cast<std::uint64_t>(src)},
            {"dst", static_cast<std::uint64_t>(dst)},
            {"seq", seq},
            {"attempts", static_cast<std::uint64_t>(attempts)}}});
}

ReliableChannel::PairState* ReliableChannel::find_pair(NodeId src,
                                                       NodeId dst) {
  for (PairState& state : pairs_[src]) {
    if (state.dst == dst) return &state;
  }
  return nullptr;
}

ReliableChannel::Pending* ReliableChannel::find_pending(PairState* state,
                                                        std::uint64_t seq) {
  if (state == nullptr) return nullptr;
  for (Pending& p : state->pending) {
    if (p.seq == seq) return &p;
  }
  return nullptr;
}

void ReliableChannel::retire(PairState& state, const Pending& p) {
  state.pending.erase(state.pending.begin() + (&p - state.pending.data()));
  --in_flight_;
}

void ReliableChannel::send(NodeId from, NodeId to, std::any payload,
                           double size_units, std::uint64_t flow) {
  obs::ProfSpan prof(obs::ProfCat::kArq);
  PairState* state = find_pair(from, to);
  if (state == nullptr) {
    state = &pairs_[from].emplace_back();
    state->dst = to;
  }
  Pending& p = state->pending.emplace_back();
  p.seq = ++state->next_seq;
  p.size = size_units;
  p.flow = flow;
  p.payload = std::move(payload);
  counters_.add(Counter::kSend);
  trace_rel("rel.send", from, to, p.seq, flow, from, 0);
  ++in_flight_;
  transmit(from, to, p);
}

void ReliableChannel::transmit(NodeId src, NodeId dst, Pending& p) {
  ++p.attempts;
  // A down/depleted sender's unicast is a silent no-op at the link; the
  // timer still runs, so the failure surfaces as a give-up (the channel
  // object is middleware bookkeeping that outlives the node).
  link_.unicast(src, dst, data_tag(p.seq), p.size, p.flow);
  const double round_trip =
      link_.radio().tx_latency(p.size) + link_.radio().tx_latency(kAckSize);
  const double rto = std::ldexp(std::max(kMinRto, kRtoFactor * round_trip),
                                static_cast<int>(p.attempts) - 1);
  const double timeout =
      rto * (1.0 + link_.simulator().rng().uniform(0.0, kJitter));
  const std::uint64_t seq = p.seq;
  p.timer = link_.simulator().schedule_in(
      timeout, [this, src, dst, seq]() { on_timeout(src, dst, seq); });
}

void ReliableChannel::on_timeout(NodeId src, NodeId dst, std::uint64_t seq) {
  PairState* pair = find_pair(src, dst);
  Pending* p = find_pending(pair, seq);
  if (p == nullptr) return;
  const bool sender_dead = link_.is_down(src) || link_.ledger().depleted(src);
  if (sender_dead || p->attempts > cfg_.max_retries) {
    // Copy the header the trace and callback need; the payload just goes.
    const std::uint32_t attempts = p->attempts;
    const std::uint64_t flow = p->flow;
    retire(*pair, *p);
    counters_.add(Counter::kGiveUp);
    trace_rel("rel.give_up", src, dst, seq, flow, src, attempts);
    if (on_give_up_) on_give_up_(src, dst, seq, attempts);
    return;
  }
  counters_.add(Counter::kRetransmit);
  trace_rel("rel.retransmit", src, dst, seq, p->flow, src, p->attempts);
  transmit(src, dst, *p);
}

void ReliableChannel::handle(NodeId at, const Packet& raw) {
  obs::ProfSpan prof(obs::ProfCat::kArq);
  const auto tag = std::any_cast<std::uint64_t>(raw.payload);
  const std::uint64_t seq = tag >> 1;

  if ((tag & 1) != 0) {
    // Ack arrived back at the data sender (at == src, raw.sender == dst).
    PairState* pair = find_pair(at, raw.sender);
    Pending* p = find_pending(pair, seq);
    if (p == nullptr) {
      counters_.add(Counter::kAckStale);  // duplicate ack or post-give-up ack
      return;
    }
    link_.simulator().cancel(p->timer);
    counters_.add(Counter::kAck);
    trace_rel("rel.ack", at, raw.sender, seq, p->flow, at, p->attempts);
    retire(*pair, *p);
    return;
  }

  // Data frame at the receiver (at == dst, raw.sender == src). Always
  // (re-)ack: the ack of an already-delivered frame may have been lost.
  link_.unicast(at, raw.sender, ack_tag(seq), kAckSize, 0);
  Pending* p = find_pending(find_pair(raw.sender, at), seq);
  if (p == nullptr || p->delivered) {
    counters_.add(Counter::kDup);
    // A null record is unreachable: every copy lands while its frame is
    // pending (see header). It is still counted, but with no record there
    // is no flow to trace it under.
    if (p != nullptr) trace_rel("rel.dup", raw.sender, at, seq, p->flow, at, 0);
    return;
  }
  p->delivered = true;
  counters_.add(Counter::kDelivered);
  if (receivers_[at]) {
    // Later copies are duplicates, so the payload is handed over, not copied.
    receivers_[at](Packet{raw.sender, p->size, std::move(p->payload)});
  }
}

}  // namespace wsn::net
