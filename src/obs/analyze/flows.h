// Flow records and critical-path extraction over captured traces.
//
// A flow is every TraceEvent sharing one correlation id: the send, the
// per-relay hop records, and the delivery of one logical message — on the
// virtual layer, or an overlay send with the physical link transmissions
// beneath it. FlowCollector (incremental.h) folds that event soup back
// into these records as the events stream past; the critical-path walk
// then answers the question the telemetry was built for: *which chain of
// messages, and which hop of which message, made this operation slow* —
// split into queueing vs. transmission time.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace wsn::obs::analyze {

/// One relay crossing inside a flow. On the virtual layer `wait` is the
/// recorded queueing delay behind the relay's transmitter and
/// transmit() the pure store-and-forward hop latency; on the physical link
/// layer the trace does not split queueing from airtime, so the whole
/// span lands in transmit() and `wait` stays 0.
struct Hop {
  std::int64_t node = -1;   // relay that transmitted
  std::int64_t next = -1;   // intended receiver (-1: local broadcast)
  double start = 0.0;       // packet reached the relay / tx was requested
  double depart = 0.0;      // transmission completed (arrival at `next`)
  double wait = 0.0;        // queueing delay behind the transmitter

  double transmit() const { return depart - start - wait; }

  bool operator==(const Hop&) const = default;
};

/// One logical message reassembled from its events.
struct Flow {
  std::uint64_t id = 0;
  Category layer = Category::kVirtual;  // kVirtual or kOverlay
  std::int64_t src_node = -1;           // emitting node of the send event
  std::int64_t dst_node = -1;           // node of the deliver event
  std::int64_t dst_index = -1;          // "dst" attr of the send (grid index)
  double send_time = 0.0;
  double deliver_time = 0.0;
  bool has_send = false;
  bool delivered = false;
  bool self_send = false;
  /// The ARQ exhausted its retry budget on a hop of this flow
  /// (kReliability "rel.give_up"): non-delivery is explained, not a bug.
  bool gave_up = false;
  /// A layer recorded an explicit drop for this flow (loss, dead endpoint).
  bool dropped = false;
  /// ARQ retransmissions performed for hops of this flow.
  std::uint32_t retransmits = 0;
  double size = 1.0;
  std::uint64_t expected_hops = 0;  // "hops" (virtual) / "vhops" (overlay)
  /// Physical-layer transmissions / deliveries correlated to this flow
  /// (counted so the streaming checker can pair rx with tx per flow
  /// without a whole-trace side table).
  std::uint32_t link_tx = 0;
  std::uint32_t link_rx = 0;
  std::vector<Hop> hops;

  double latency() const { return delivered ? deliver_time - send_time : 0.0; }
  double total_wait() const;
  double total_transmit() const;

  bool operator==(const Flow&) const = default;
};

/// One link of a reconstructed dependency chain: `gap_before` is the time
/// the chain sat at a node between the previous delivery and this send
/// (merge compute, scheduling) — latency that belongs to no message.
struct ChainLink {
  const Flow* flow = nullptr;
  double gap_before = 0.0;
};

/// Critical path through a set of flows: the dependency chain that ends at
/// the latest delivery, walked backward (a flow's predecessor is the flow
/// that last delivered *to its source node* before it was sent).
struct CriticalPathReport {
  std::vector<ChainLink> chain;  // in time order, first link has gap 0
  double start_time = 0.0;       // send of the first chain link
  double end_time = 0.0;         // delivery of the last chain link
  double message_wait = 0.0;     // queueing inside chain messages
  double message_transmit = 0.0; // store-and-forward time inside them
  double node_gaps = 0.0;        // inter-message time at chain nodes

  double total() const { return end_time - start_time; }
};

/// Extracts the critical path over all delivered flows. Empty chain when
/// nothing was delivered.
CriticalPathReport critical_path(const std::vector<Flow>& flows);

}  // namespace wsn::obs::analyze
