// Trace invariant checker — the test oracle over captured runs.
//
// A structurally sound trace satisfies, independent of workload:
//   * every delivery belongs to a flow that was sent (no orphan receives);
//   * every non-self send terminates in a delivery, an ARQ give-up or a
//     recorded drop (flows terminate);
//   * a virtual flow crosses exactly the hop count its send announced, and
//     each hop's timeline is causal (non-negative wait and transmit time);
//   * the end-to-end latency decomposes exactly into the per-hop spans;
//   * every physical-layer receive in a correlated flow follows a
//     transmission of that flow;
//   * collective 'B'/'E' spans pair up and close forward in time.
// The fault-model layers add, each passing vacuously when its events are
// absent:
//   * reliability — every rel.retransmit / give_up / ack / dup pairs with a
//     preceding rel.send of the same (src, dst, seq), and no delivery lands
//     on a node between its fault.crash and fault.recover;
//   * failure detection — at most one fd.claim per (cell, epoch), each
//     preceded by an fd.elect (or fd.handoff) of that epoch, with claim
//     epochs strictly increasing per cell;
//   * depletion — energy.depleted fires once per node with spent >= budget,
//     and no link frame at that node carries a strictly later timestamp
//     (the dying frame itself shares the crossing tick);
//   * self-stabilization — no leadership churn (fd.elect, lease expiry,
//     audit conflict, epoch regression, unplanned claim) after the last
//     disturbance plus the largest analytic bound an fd.corrupt carries;
//   * membership — no repair churn after the last membership disturbance
//     plus its bound, every fd.adopt answered by an fd.adopt_accept in
//     bound, and every cell an adoption vacated re-bound by fd.adopt_bind
//     (zero dark cells).
// Given the run's metrics snapshot (the JSON `--metrics` writes), trace-
// derived radio energy must also equal the ledger's "vnet.energy" /
// "link.energy" tx and rx totals (compute energy is not traced), and the
// traced give-up count must equal the "arq.counters" section's
// "arq.give_up", and the capture must be whole (check_capture below).
//
// StreamingChecker (incremental.h) is the one implementation of all of it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/analyze/json_reader.h"

namespace wsn::obs::analyze {

struct CheckReport {
  std::vector<std::string> issues;
  std::size_t flows_checked = 0;        // flows reconstructed and checked
  std::size_t collectives_checked = 0;  // collective spans begun
  std::size_t events_seen = 0;
  /// Worst strike-to-quiet latency: for each fd.corrupt at t, the last
  /// churn event in (t, t + its bound]; 0 when no strike provoked churn.
  double max_reconverge_latency = 0.0;

  bool ok() const { return issues.empty(); }
};

/// Capture-health check over a metrics snapshot: a nonzero "trace.dropped"
/// gauge (RingBufferSink::register_metrics) means the companion trace file
/// is a *suffix* of the run — the sink overwrote its oldest events — so
/// flow reconstruction and energy replay over it are unsound. Flagging it
/// here turns a silently-partial capture into an explicit finding. Passes
/// vacuously when the snapshot has no "trace.dropped" gauge (no ring sink
/// was registered).
CheckReport check_capture(const JsonValue& metrics_snapshot);

/// The snapshot value `v` of `key` read as a count: a non-negative integer
/// below 2^64. A snapshot is untrusted input, so any other value appends a
/// finding that names `key` and the value to `issues` and yields nullopt.
std::optional<std::uint64_t> snapshot_count(const JsonValue& v,
                                            const std::string& key,
                                            std::vector<std::string>& issues);

}  // namespace wsn::obs::analyze
