// The synthesized reactive program of Section 4.3 / Figure 4.
//
// The program is a set of guarded condition -> action rules over per-node
// state, executed under a reactive, event-driven model with asynchronous
// data flow: "a process need not wait for all its input data (incoming
// messages) before computing on them ... incoming information is
// incrementally processed wherever possible."
//
// State (initial values), exactly as in Figure 4:
//   start(=false), recLevel(=0), maxrecLevel,
//   mySubGraph[1..maxrecLevel](=NULL), myCoords,
//   msgsReceived[1..maxrecLevel](=0), transmit(=false)
// Message alphabet: mGraph = {senderCoord, msubGraph, mrecLevel}.
//
// Rule semantics implemented here (one consistent reading of the figure;
// see DESIGN.md for the reconciliation of the figure's increment placement):
//   R1 start:     start=false; mySubGraph[0] = data from the sensing
//                 interface; transmit=true.
//   R2 receive:   merge(mGraph.msubGraph, mySubGraph[mrecLevel]);
//                 msgsReceived[mrecLevel]++.
//   R3 transmit:  if recLevel == maxrecLevel: exfiltrate mySubGraph[recLevel]
//                 else send {myCoords, mySubGraph[recLevel], recLevel+1} to
//                 Leader(recLevel+1); when that leader is the node itself the
//                 send degenerates to a local merge (the paper: "one of the
//                 four incoming messages ... is from the node to itself").
//                 transmit=false.
//   R4 advance:   when msgsReceived[recLevel+1] == 3 and the node's own
//                 contribution is folded in: recLevel++; transmit=true.
//                 (3 = the four quad-tree children minus the self-message.)
//
// The figure's "3 messages" is specific to the paper's NW-corner mapping,
// where every level-l leader also leads one of its own sub-blocks. The
// interpreter derives the expected contribution count from the group
// hierarchy instead (3 remote + self when the leader leads a sub-block,
// 4 remote otherwise), so the same program also runs under the alternative
// leader placements of the mapping ablation.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/fabric.h"

namespace wsn::synthesis {

/// Application-specific behavior plugged into the generic program skeleton.
/// The interpreter is agnostic to what the "subgraph" data actually is.
struct ProgramHooks {
  /// Produces the level-0 data of a node from its sensing interface.
  std::function<std::any(const core::GridCoord&)> sense;

  /// Folds one child contribution into the accumulator for a level.
  /// `acc` starts empty (has_value() == false) for each level. The program
  /// hands every payload over exactly once, so the hook may move from
  /// `incoming`.
  std::function<void(std::any& acc, std::any&& incoming)> merge;

  /// Converts a completed accumulation into the payload transmitted upward
  /// (level >= 1) or the level-0 sensed data into its payload (level == 0).
  std::function<std::any(std::any& acc, const core::GridCoord& self,
                         std::uint32_t level)>
      seal;

  /// Units of data one payload occupies on the air.
  std::function<double(const std::any& payload)> payload_units;

  /// Receives the final aggregate at the exfiltrating node; the program
  /// keeps it as result().
  std::function<void(const core::GridCoord&, const std::any&)> exfiltrate;

  /// Cost annotations (ops per activation), per the uniform cost model.
  double sense_ops = 1.0;
  double merge_ops = 1.0;
};

/// Execution statistics of one aggregation round.
struct RoundStats {
  std::uint64_t messages_sent = 0;   // network sends (self-sends excluded)
  std::uint64_t self_merges = 0;     // leader-to-itself contributions
  std::uint64_t remote_merges = 0;   // mGraph receptions merged
  sim::Time finished_at = 0;         // exfiltration time
  bool finished = false;
  core::GridCoord exfiltration_node{};
};

/// Event-driven interpreter running one instance of the Figure 4 program on
/// every node of a MessageFabric. Drive it with:
///   AggregationProgram prog(fabric, hooks);
///   prog.start_round();
///   fabric.simulator().run();
///   prog.stats();  // finished, result, costs
class AggregationProgram {
 public:
  AggregationProgram(core::MessageFabric& fabric, ProgramHooks hooks);

  /// Uninstalls the receivers this program placed on the fabric, so a
  /// destroyed program can never be invoked by a late message.
  ~AggregationProgram();

  AggregationProgram(const AggregationProgram&) = delete;
  AggregationProgram& operator=(const AggregationProgram&) = delete;

  /// Raises `start` on every node at the current simulation time.
  void start_round();

  const RoundStats& stats() const { return stats_; }
  bool finished() const { return stats_.finished; }
  /// The exfiltrated aggregate (valid once finished()).
  const std::any& result() const { return result_; }

  std::uint32_t max_rec_level() const { return max_level_; }

 private:
  /// One message of the mGraph alphabet.
  struct MGraph {
    core::GridCoord sender_coord;
    std::any msub_graph;
    std::uint32_t mrec_level;
  };

  void on_start(const core::GridCoord& c);
  void on_receive(const core::GridCoord& c, core::VirtualMessage&& msg);
  /// Seals the data a node assembled at `level` and moves it one level up
  /// (self-merge, network send, or exfiltration at maxrecLevel).
  void transmit_level(const core::GridCoord& c, std::uint32_t level);
  void check_advance(const core::GridCoord& c, std::uint32_t level);
  /// Index of node `c`'s entry for `level` in the per-level state arrays.
  std::size_t slot(const core::GridCoord& c, std::uint32_t level) const {
    return fabric_.grid().index_of(c) * (max_level_ + 1) + level;
  }

  core::MessageFabric& fabric_;
  ProgramHooks hooks_;
  std::uint32_t max_level_;
  // Figure 4's per-node state, sized once in the constructor and reset in
  // place by start_round(). The per-level arrays hold nodes x (maxrecLevel
  // + 1) entries, indexed by slot().
  std::vector<bool> start_;                   // per node
  std::vector<std::any> my_sub_graph_;        // mySubGraph[0..maxrecLevel]
  std::vector<std::uint32_t> msgs_received_;  // msgsReceived[0..maxrecLevel]
  /// Merges whose compute latency has elapsed; gates advancement so the
  /// final merge's cost lands on the critical path.
  std::vector<std::uint32_t> merges_done_;
  std::vector<bool> contributed_;  // self data folded per level
  std::vector<bool> level_sent_;   // sealed & transmitted upward
  RoundStats stats_;
  std::any result_;
};

/// Renders the Figure 4 program specification as text (states, message
/// alphabet, and the four condition/action clauses).
std::string render_figure4();

}  // namespace wsn::synthesis
