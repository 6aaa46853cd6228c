// Incremental (single-pass, bounded-memory) trace analysis.
//
// FlowCollector folds events into live Flow records and *retires* each
// flow to a callback once it has been idle for kRetireLag time units, so
// peak memory tracks the number of concurrently-live flows instead of the
// trace length. StreamingChecker runs every check.h invariant on top of
// that collector — it is their one implementation: wsn-inspect check
// streams a capture from disk into it, and sim::ChaosSoak and stackbench
// feed it live from the tracer with no capture at all. Both assume events
// arrive in emission order with nondecreasing timestamps — which is how
// every sink writes them.
//
// Retirement is strictly in flow-creation order (only the front of the
// creation queue retires), so downstream output — wsn-inspect flows rows,
// per-flow findings — comes out in creation order, exactly as if nothing
// retired before the end of the stream.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/analyze/check.h"
#include "obs/analyze/energy.h"
#include "obs/analyze/flows.h"
#include "obs/analyze/json_reader.h"
#include "obs/trace.h"

namespace wsn::obs::analyze {

/// Flow and ARQ state untouched for this many trace time units behind the
/// stream's watermark retires. Every protocol exchange in the suite
/// completes well inside it — the slowest ARQ exchange, five retries on an
/// RTO doubling from 3.75 units plus 25% jitter, takes ~295 — and it keeps
/// memory bounded by live work, not by trace length.
inline constexpr double kRetireLag = 1024.0;

class FlowCollector {
 public:
  using RetireFn = std::function<void(Flow&)>;

  explicit FlowCollector(RetireFn on_retire)
      : on_retire_(std::move(on_retire)) {}

  /// Folds one event into its flow (collective and flow-0 events carry no
  /// flow structure and are ignored) and retires flows that fell behind
  /// the watermark.
  void feed(const TraceEvent& ev);

  /// Retires every still-live flow, in creation order.
  void finish();

  std::uint64_t flows_seen() const { return flows_seen_; }
  std::size_t live() const { return queue_.size(); }

 private:
  struct LiveFlow {
    Flow flow;
    double last_touch = 0.0;
  };

  RetireFn on_retire_;
  // deque gives stable element addresses under push_back/pop_front, so the
  // id index can hold plain pointers into it.
  std::deque<LiveFlow> queue_;
  std::unordered_map<std::uint64_t, LiveFlow*> index_;
  std::uint64_t flows_seen_ = 0;
};

/// All check.h invariants as one single-pass consumer. feed() every event
/// in order, then finish() — with the run's metrics snapshot, if captured,
/// for the energy-conservation / ARQ-counter / capture-health checks —
/// to obtain the combined CheckReport. Peak memory is bounded by live
/// flows + nodes + collectives + fault activity, never by trace length nor
/// by the largest id a trace names.
class StreamingChecker {
 public:
  StreamingChecker();

  void feed(const TraceEvent& ev);
  CheckReport finish(const JsonValue* metrics_snapshot = nullptr);

 private:
  /// A churn event buffered until finish(): a later disturbance can extend
  /// the quiescence deadline and legitimize churn that looked late when it
  /// streamed past.
  struct ChurnEvent {
    EventName name;
    std::int64_t node = 0;
    double time = 0.0;
  };

  /// Self-healing membership bookkeeping. feed() every kReliability event
  /// in order; resolve() appends the violations once the stream is
  /// complete (the reconciliation deadline and adoption bound are only
  /// final then). Bounded by membership activity, never by trace length.
  struct MembershipLedger {
    struct Adoption {
      std::int64_t node = -1;
      std::int64_t row = -1, col = -1;            // the adopter cell joined
      std::int64_t from_row = -1, from_col = -1;  // the cell abandoned
      bool last = false;  // orphan was the cell's last reachable member
      double time = 0.0;
    };
    struct Accept {
      std::int64_t node = -1;  // the orphan accepted
      std::int64_t row = -1, col = -1;
      double time = 0.0;
    };
    struct Bind {
      std::int64_t row = -1, col = -1;  // the vacated cell re-bound
      double time = 0.0;
    };

    double bound = 0.0;             // largest analytic bound attr seen
    double last_disturbance = 0.0;  // anchors the quiescence deadline
    std::size_t strikes = 0;        // fd.defect + fd.roster_corrupt events
    std::vector<Adoption> adoptions;
    std::vector<Accept> accepts;
    std::vector<Bind> binds;
    std::vector<ChurnEvent> churn;

    /// `classes`: the event's name classes (see incremental.cpp).
    void feed(const TraceEvent& ev, unsigned classes);
    void resolve(std::vector<std::string>& issues) const;
  };

  /// The directed pair an ARQ frame crosses, and the high half of its seq.
  struct Lane {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint64_t seq_high = 0;
    bool operator==(const Lane&) const = default;
  };
  struct LaneHash {
    std::size_t operator()(const Lane& lane) const;
  };
  /// A virtual node's cell.
  struct Cell {
    std::int64_t row = -1;
    std::int64_t col = -1;
    auto operator<=>(const Cell&) const = default;
  };
  /// A cell's leadership at one epoch.
  struct CellEpoch {
    Cell cell;
    std::uint64_t epoch = 0;
    auto operator<=>(const CellEpoch&) const = default;
  };

  /// An fd.corrupt strike, timed against the churn it provokes.
  struct Strike {
    double at = 0.0;
    double bound = 0.0;  // the analytic stabilization bound it carries
    double quiet = 0.0;  // last strike churn inside (at, at + bound]
  };

  void retire(Flow& f);
  void feed_collective(const TraceEvent& ev);
  void feed_reliability(const TraceEvent& ev);
  void feed_depletion_link(const TraceEvent& ev);
  void expire_rel_state(double watermark);
  /// The integer key of `ev`'s ARQ exchange (src, dst, seq): the id of its
  /// lane above the low half of its seq. Lanes are numbered in first-seen
  /// order.
  std::uint64_t exchange_key(const TraceEvent& ev);

  CheckReport report_;
  FlowCollector flows_;
  // Trace-derived radio energy per layer, for the ledger comparison.
  RadioEnergy vnet_energy_;
  RadioEnergy link_energy_;

  // Collectives. Open spans are keyed by id; `began_` remembers every id
  // that ever began so an 'E' without any 'B' is an orphan (collective ids
  // are handed out per operation, not per event, so this stays small).
  struct OpenCollective {
    EventName name;
    double begin = 0.0;
  };
  std::unordered_map<std::uint64_t, OpenCollective> open_collectives_;
  std::unordered_set<std::uint64_t> began_;

  // Reliability (ARQ pairing + crash windows). `sent_` maps each exchange
  // to its last-touch time and is expired lazily through `sent_queue_` so
  // per-hop ARQ traffic doesn't accumulate forever. Their keys are 8-byte
  // integers; `lanes_` numbers the lanes the keys name, so it is bounded by
  // the directed pairs of the topology.
  std::unordered_map<Lane, std::uint64_t, LaneHash> lanes_;
  std::unordered_map<std::uint64_t, double> sent_;
  std::deque<std::pair<std::uint64_t, double>> sent_queue_;
  std::unordered_set<std::int64_t> crashed_;
  std::uint64_t give_ups_ = 0;

  // Failure detection (bounded by cells x epochs actually contested).
  std::set<CellEpoch> elections_;
  std::set<CellEpoch> claimed_;
  std::map<Cell, std::uint64_t> last_claim_epoch_;

  // Depletion (bounded by node count).
  std::unordered_map<std::int64_t, double> depleted_at_;

  // Self-stabilization: churn candidates wait for the final deadline.
  // Bounded by elections/claims and strikes in the trace, not by trace
  // length.
  std::vector<ChurnEvent> stab_churn_;
  double stab_bound_ = 0.0;
  double stab_disturb_ = 0.0;
  std::vector<Strike> strikes_;

  MembershipLedger membership_;
};

}  // namespace wsn::obs::analyze
