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

}  // namespace

ReliableChannel::ReliableChannel(LinkLayer& link, ReliableConfig cfg)
    : link_(link), cfg_(cfg), receivers_(link.graph().node_count()) {
  for (NodeId i = 0; i < link_.graph().node_count(); ++i) {
    link_.set_receiver(i, [this, i](const Packet& pkt) { handle(i, pkt); });
  }
}

void ReliableChannel::trace_rel(const char* name, const Frame& fr,
                                std::int64_t node, std::uint32_t attempts) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Category::kReliability)) return;
  tr.emit({link_.simulator().now(), node, obs::Category::kReliability, 'i',
           name, fr.flow,
           {{"src", static_cast<std::uint64_t>(fr.src)},
            {"dst", static_cast<std::uint64_t>(fr.dst)},
            {"seq", fr.seq},
            {"attempts", static_cast<std::uint64_t>(attempts)}}});
}

ReliableChannel::Pending* ReliableChannel::find_pending(std::uint64_t pair,
                                                        std::uint64_t seq) {
  const auto it = pairs_.find(pair);
  if (it == pairs_.end()) return nullptr;
  for (Pending& p : it->second.pending) {
    if (p.frame.seq == seq) return &p;
  }
  return nullptr;
}

void ReliableChannel::retire(std::uint64_t pair, std::uint64_t seq) {
  std::erase_if(pairs_[pair].pending,
                [seq](const Pending& p) { return p.frame.seq == seq; });
  --in_flight_;
}

void ReliableChannel::send(NodeId from, NodeId to, std::any payload,
                           double size_units, std::uint64_t flow) {
  obs::ProfSpan prof(obs::ProfCat::kArq);
  PairState& pair = pairs_[pair_key(from, to)];
  Frame fr{false, from, to, ++pair.next_seq, size_units,
           std::make_shared<std::any>(std::move(payload)), flow};
  counters_.add("arq.send");
  trace_rel("rel.send", fr, static_cast<std::int64_t>(from), 0);
  Pending& p = pair.pending.emplace_back();
  p.frame = std::move(fr);
  ++in_flight_;
  transmit(p);
}

void ReliableChannel::transmit(Pending& p) {
  ++p.attempts;
  // A down/depleted sender's unicast is a silent no-op at the link; the
  // timer still runs, so the failure surfaces as a give-up (the channel
  // object is middleware bookkeeping that outlives the node).
  link_.unicast(p.frame.src, p.frame.dst, p.frame, p.frame.data_size,
                p.frame.flow);
  const double round_trip = link_.radio().tx_latency(p.frame.data_size) +
                            link_.radio().tx_latency(kAckSize);
  const double rto = std::ldexp(std::max(kMinRto, kRtoFactor * round_trip),
                                static_cast<int>(p.attempts) - 1);
  const double timeout =
      rto * (1.0 + link_.simulator().rng().uniform(0.0, kJitter));
  const std::uint64_t pair = pair_key(p.frame.src, p.frame.dst);
  const std::uint64_t seq = p.frame.seq;
  p.timer = link_.simulator().schedule_in(
      timeout, [this, pair, seq]() { on_timeout(pair, seq); });
}

void ReliableChannel::on_timeout(std::uint64_t pair, std::uint64_t seq) {
  Pending* p = find_pending(pair, seq);
  if (p == nullptr) return;
  const bool sender_dead =
      link_.is_down(p->frame.src) || link_.ledger().depleted(p->frame.src);
  if (sender_dead || p->attempts > cfg_.max_retries) {
    const Frame frame = p->frame;
    const std::uint32_t attempts = p->attempts;
    retire(pair, seq);
    counters_.add("arq.give_up");
    trace_rel("rel.give_up", frame, static_cast<std::int64_t>(frame.src),
              attempts);
    if (on_give_up_) on_give_up_(frame.src, frame.dst, seq, attempts);
    return;
  }
  counters_.add("arq.retransmit");
  trace_rel("rel.retransmit", p->frame,
            static_cast<std::int64_t>(p->frame.src), p->attempts);
  transmit(*p);
}

void ReliableChannel::handle(NodeId at, const Packet& raw) {
  obs::ProfSpan prof(obs::ProfCat::kArq);
  const auto& fr = std::any_cast<const Frame&>(raw.payload);
  const std::uint64_t key = pair_key(fr.src, fr.dst);
  Pending* p = find_pending(key, fr.seq);

  if (fr.ack) {
    // Ack arrived back at the data sender (at == fr.src).
    if (p == nullptr) {
      counters_.add("arq.ack_stale");  // duplicate ack or post-give-up ack
      return;
    }
    link_.simulator().cancel(p->timer);
    counters_.add("arq.ack");
    trace_rel("rel.ack", p->frame, static_cast<std::int64_t>(at), p->attempts);
    retire(key, fr.seq);
    return;
  }

  // Data frame at the receiver (at == fr.dst). Always (re-)ack: the ack of
  // an already-delivered frame may have been lost.
  link_.unicast(fr.dst, fr.src,
                Frame{true, fr.src, fr.dst, fr.seq, fr.data_size, nullptr, 0},
                kAckSize, 0);
  // Every copy lands while its frame is pending (see header); the null check
  // only guards that timing.
  if (p == nullptr || p->delivered) {
    counters_.add("arq.dup");
    trace_rel("rel.dup", fr, static_cast<std::int64_t>(at), 0);
    return;
  }
  p->delivered = true;
  counters_.add("arq.delivered");
  if (receivers_[at]) {
    // Later copies are duplicates, so the payload is handed over, not copied.
    receivers_[at](Packet{fr.src, fr.data_size, std::move(*fr.payload)});
  }
}

}  // namespace wsn::net
