// Flow records and critical-path extraction over captured traces.
//
// A flow is every TraceEvent sharing one correlation id: the send, the
// per-relay hop records, and the delivery of one logical message — on the
// virtual layer, or an overlay send with the physical link transmissions
// beneath it. FlowCollector (incremental.h) folds that event soup back
// into these records as the events stream past, keeping of the per-relay
// hops only their count and sums; the critical-path walk then answers the
// question the telemetry was built for: *which chain of messages made this
// operation slow* — split into queueing vs. transmission time.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/trace.h"

namespace wsn::obs::analyze {

/// One logical message reassembled from its events. Its relay crossings
/// are folded into running sums in trace order, so a flow is a fixed-size
/// value however many hops it takes. On the virtual layer a hop's `wait` is
/// the recorded queueing delay behind the relay's transmitter and the rest
/// of its span the pure store-and-forward hop latency; on the physical link
/// layer the trace does not split queueing from airtime, so the whole span
/// counts as transmit and its wait is 0.
struct Flow {
  std::uint64_t id = 0;
  Category layer = Category::kVirtual;  // kVirtual or kOverlay
  std::int64_t src_node = -1;           // emitting node of the send event
  std::int64_t dst_node = -1;           // node of the deliver event
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
  double size = 1.0;
  std::uint64_t expected_hops = 0;  // "hops" (virtual) / "vhops" (overlay)
  /// Physical-layer transmissions / deliveries correlated to this flow
  /// (counted so the streaming checker can pair rx with tx per flow
  /// without a whole-trace side table).
  std::uint32_t link_tx = 0;
  std::uint32_t link_rx = 0;
  /// Relay crossings traced, and their sums: queueing delay, store-and-
  /// forward time (span minus wait) and whole span (departure minus start).
  std::uint64_t hops = 0;
  double wait = 0.0;
  double transmit = 0.0;
  double span = 0.0;
  /// The relay of the first acausal hop (one whose wait, transmit or span
  /// is negative), if any.
  std::optional<std::int64_t> acausal_relay;

  double latency() const { return delivered ? deliver_time - send_time : 0.0; }

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
