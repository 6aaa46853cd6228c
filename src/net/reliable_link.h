// ReliableChannel: a stop-and-wait-per-frame ARQ shim over LinkLayer.
//
// The paper's Section 5 runtime keeps a virtual grid alive on an unreliable
// deployment, but nothing above the lossy link recovers a dropped packet: a
// single loss stalls a collective or silently corrupts its result. This
// layer adds the missing machinery for unicast traffic (the overlay's hop
// transport): per-directed-pair sequence numbers, ack frames, retransmit
// timers on the simulator's own event queue (doubling per retry, seeded
// random stretch), a bounded retry budget with an `on_give_up` callback,
// and duplicate suppression on receive.
//
// All bookkeeping is one record per directed link pair: the next sequence
// number and the frames awaiting an ack. The records are stored per source
// node and found by a linear scan of that node's few destinations, so no
// hash lookup sits on a hop, and only pairs that have carried a frame hold
// one. Every timeout is at least 3x the data-plus-ack airtime and the link
// lands each copy one airtime after it is sent, so every copy of a frame
// arrives before its sender retires it (by ack or give-up). A `delivered`
// flag on the pending frame therefore does a receiver window's job for
// every frame that can still arrive; the channel is one simulated object
// serving both endpoints, so it can.
//
// The same argument sets the wire format. A data or ack frame travels as one
// std::uint64_t tag, `seq << 1 | ack`, which std::any holds without a heap
// block. The receiver takes the endpoints from the link (the delivering node
// and Packet::sender; acks travel dst -> src) and reads the payload, size
// and flow from the pending record, which every copy finds in place.
//
// Give-ups double as a liveness signal: a frame that survives the full
// retry budget names a suspect endpoint, and the on_give_up hook hands it
// to the layer above (the FailureDetector repairs routes around it).
//
// The channel owns the LinkLayer receivers of every node (install it after
// the setup protocols — topology emulation and leader binding — have run
// and released theirs). Upper layers register their handlers here instead.
//
// Observability: every send/retransmit/ack/duplicate/give-up emits a
// Category::kReliability TraceEvent (names "rel.*") and bumps an "arq.*"
// counter, so wsn-inspect can attribute retransmission energy and verify
// the pairing invariants. Data frames carry the originating message's flow
// id into the physical unicasts beneath them; ack frames travel as flow 0
// (uncorrelated control traffic).
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "net/link_layer.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"

namespace wsn::net {

struct ReliableConfig {
  /// Retransmissions after the initial transmission before giving up.
  std::uint32_t max_retries = 5;
};

class ReliableChannel {
 public:
  /// `from`/`to` are the DATA frame's endpoints; `attempts` counts
  /// transmissions performed (1 initial + retries).
  using GiveUp = std::function<void(NodeId from, NodeId to, std::uint64_t seq,
                                    std::uint32_t attempts)>;

  /// Takes over every LinkLayer receiver. The link must outlive the channel.
  explicit ReliableChannel(LinkLayer& link, ReliableConfig cfg = {});

  /// Installs the upper-layer handler for data frames addressed to `node`.
  /// Acks and duplicates are consumed internally.
  void set_receiver(NodeId node, LinkLayer::Receiver r) {
    receivers_[node] = std::move(r);
  }

  /// Reliably sends `payload` over the one-hop link `from` -> `to`
  /// (LinkLayer::unicast semantics). `flow` is the trace correlation id of
  /// the logical message this hop serves.
  void send(NodeId from, NodeId to, std::any payload, double size_units = 1.0,
            std::uint64_t flow = 0);

  void set_on_give_up(GiveUp fn) { on_give_up_ = std::move(fn); }

  /// Frames currently awaiting an ack.
  std::size_t in_flight() const { return in_flight_; }
  sim::CounterSet& counters() { return counters_; }

  /// Registers the ARQ counters under `prefix` in the unified registry.
  void register_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "arq") const {
    registry.add_counters(prefix + ".counters", &counters_);
    registry.add_gauge(prefix + ".in_flight", [this] {
      return static_cast<double>(in_flight_);
    });
  }

 private:
  /// One data frame awaiting its ack: everything but the tag on the wire.
  struct Pending {
    std::uint64_t seq = 0;
    sim::EventId timer = 0;
    std::uint32_t attempts = 0;  // transmissions performed so far
    bool delivered = false;      // a copy has reached the receiver
    double size = 1.0;
    std::uint64_t flow = 0;
    std::any payload;  // handed to the receiver by the first copy
  };

  /// Everything the channel keeps about one directed pair.
  struct PairState {
    NodeId dst = kNoNode;
    std::uint64_t next_seq = 0;
    std::vector<Pending> pending;  // awaiting an ack, in sequence order
  };

  enum class Counter : std::uint8_t {
    kAck, kAckStale, kDelivered, kDup, kGiveUp, kRetransmit, kSend, kCount
  };
  static constexpr std::string_view kCounterNames[] = {
      "arq.ack", "arq.ack_stale", "arq.delivered", "arq.dup",
      "arq.give_up", "arq.retransmit", "arq.send"};
  static_assert(sim::counter_table_ok<Counter>(kCounterNames));

  /// The record of pair `src` -> `dst`, or null before its first frame.
  PairState* find_pair(NodeId src, NodeId dst);
  /// The frame `seq` of `state` awaiting an ack, or null once retired (or
  /// when `state` is null).
  static Pending* find_pending(PairState* state, std::uint64_t seq);
  /// Drops `p`, a frame of `state`'s pending list.
  void retire(PairState& state, const Pending& p);
  void handle(NodeId at, const Packet& raw);
  void transmit(NodeId src, NodeId dst, Pending& p);  // a copy + its timeout
  void on_timeout(NodeId src, NodeId dst, std::uint64_t seq);
  void trace_rel(obs::EventName name, NodeId src, NodeId dst, std::uint64_t seq,
                 std::uint64_t flow, NodeId node, std::uint32_t attempts);

  LinkLayer& link_;
  ReliableConfig cfg_;
  std::vector<LinkLayer::Receiver> receivers_;
  /// Indexed by source node: that node's pairs, in order of first send.
  std::vector<std::vector<PairState>> pairs_;
  std::size_t in_flight_ = 0;
  GiveUp on_give_up_;
  sim::CounterSet counters_{kCounterNames};
};

}  // namespace wsn::net
