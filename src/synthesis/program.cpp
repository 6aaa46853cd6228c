#include "synthesis/program.h"

#include <algorithm>
#include <stdexcept>

#include "obs/profiler.h"

namespace wsn::synthesis {

AggregationProgram::AggregationProgram(core::MessageFabric& fabric,
                                       ProgramHooks hooks)
    : fabric_(fabric), hooks_(std::move(hooks)) {
  obs::ProfSpan span(obs::ProfCat::kApp);
  if (!hooks_.sense || !hooks_.merge || !hooks_.seal || !hooks_.payload_units ||
      !hooks_.exfiltrate) {
    throw std::invalid_argument("AggregationProgram: all hooks are required");
  }
  max_level_ = fabric_.groups().max_level();
  const std::size_t nodes = fabric_.grid().node_count();
  const std::size_t slots = nodes * (max_level_ + 1);
  start_.assign(nodes, false);
  my_sub_graph_.resize(slots);
  msgs_received_.assign(slots, 0);
  merges_done_.assign(slots, 0);
  contributed_.assign(slots, false);
  level_sent_.assign(slots, false);
  for (std::size_t i = 0; i < nodes; ++i) {
    const core::GridCoord c = fabric_.grid().coord_of(i);
    fabric_.set_receiver(c, [this, c](core::VirtualMessage&& msg) {
      on_receive(c, std::move(msg));
    });
  }
}

AggregationProgram::~AggregationProgram() {
  obs::ProfSpan span(obs::ProfCat::kApp);
  const core::GridTopology& grid = fabric_.grid();
  for (std::size_t i = 0; i < grid.node_count(); ++i) {
    fabric_.set_receiver(grid.coord_of(i), nullptr);
  }
}

void AggregationProgram::start_round() {
  obs::ProfSpan span(obs::ProfCat::kApp);
  stats_ = RoundStats{};
  std::fill(start_.begin(), start_.end(), true);
  for (std::any& sub_graph : my_sub_graph_) sub_graph.reset();
  std::fill(msgs_received_.begin(), msgs_received_.end(), 0);
  std::fill(merges_done_.begin(), merges_done_.end(), 0);
  std::fill(contributed_.begin(), contributed_.end(), false);
  std::fill(level_sent_.begin(), level_sent_.end(), false);
  const core::GridTopology& grid = fabric_.grid();
  for (std::size_t i = 0; i < grid.node_count(); ++i) {
    fabric_.simulator().post([this, c = grid.coord_of(i)]() { on_start(c); });
  }
}

void AggregationProgram::on_start(const core::GridCoord& c) {
  obs::ProfSpan span(obs::ProfCat::kApp);
  const std::size_t node = fabric_.grid().index_of(c);
  if (!start_[node]) return;
  start_[node] = false;
  // Compute mySubGraph[0] from intra-cell readings, then transmit.
  my_sub_graph_[slot(c, 0)] = hooks_.sense(c);
  const sim::Time lat = fabric_.compute(c, hooks_.sense_ops);
  fabric_.simulator().schedule_in(lat,
                                  [this, c]() { transmit_level(c, 0); });
}

void AggregationProgram::transmit_level(const core::GridCoord& c,
                                        std::uint32_t level) {
  obs::ProfSpan span(obs::ProfCat::kApp);
  const std::size_t at = slot(c, level);
  if (level_sent_[at]) return;
  level_sent_[at] = true;

  std::any payload = hooks_.seal(my_sub_graph_[at], c, level);

  if (level == max_level_) {
    // Final aggregation complete: exfiltrate.
    stats_.finished = true;
    stats_.finished_at = fabric_.simulator().now();
    stats_.exfiltration_node = c;
    result_ = std::move(payload);
    hooks_.exfiltrate(c, result_);
    return;
  }

  const std::uint32_t target_level = level + 1;
  const core::GridCoord leader = fabric_.groups().leader_of(c, target_level);
  if (leader == c) {
    // Self-contribution: "one of the four incoming messages ... is from the
    // node to itself" - no radio, merge locally.
    ++stats_.self_merges;
    hooks_.merge(my_sub_graph_[slot(c, target_level)], std::move(payload));
    const sim::Time lat = fabric_.compute(c, hooks_.merge_ops);
    fabric_.simulator().schedule_in(lat, [this, c, target_level]() {
      contributed_[slot(c, target_level)] = true;
      check_advance(c, target_level);
    });
    return;
  }

  ++stats_.messages_sent;
  const double units = hooks_.payload_units(payload);
  fabric_.send(c, leader, MGraph{c, std::move(payload), target_level}, units);
}

void AggregationProgram::on_receive(const core::GridCoord& c,
                                    core::VirtualMessage&& vmsg) {
  obs::ProfSpan span(obs::ProfCat::kApp);
  auto& msg = std::any_cast<MGraph&>(vmsg.payload);
  const std::uint32_t level = msg.mrec_level;
  // merge(mGraph, mySubGraph[mrecLevel]); msgsReceived[mrecLevel]++.
  hooks_.merge(my_sub_graph_[slot(c, level)], std::move(msg.msub_graph));
  ++msgs_received_[slot(c, level)];
  ++stats_.remote_merges;
  const sim::Time lat = fabric_.compute(c, hooks_.merge_ops);
  fabric_.simulator().schedule_in(lat, [this, c, level]() {
    ++merges_done_[slot(c, level)];
    check_advance(c, level);
  });
}

void AggregationProgram::check_advance(const core::GridCoord& c,
                                       std::uint32_t level) {
  obs::ProfSpan span(obs::ProfCat::kApp);
  if (level == 0 || level > max_level_ || level_sent_[slot(c, level)]) {
    return;
  }
  if (!fabric_.groups().is_leader(c, level)) return;
  // A level-l leader that also leads one of its sub-blocks contributes its
  // own piece locally and expects 3 remote messages (the Figure 4 count,
  // which assumes the paper's NW mapping); otherwise all 4 sub-block pieces
  // arrive over the network. Gating on completed merges keeps the last
  // merge's compute latency on the critical path.
  const bool leads_sub_block = fabric_.groups().is_leader(c, level - 1);
  const std::uint32_t expected_remote = leads_sub_block ? 3 : 4;
  const bool self_ok = !leads_sub_block || contributed_[slot(c, level)];
  if (merges_done_[slot(c, level)] == expected_remote && self_ok) {
    transmit_level(c, level);
  }
}

std::string render_figure4() {
  return R"(State (initial values) :
  start(= false), recLevel(= 0), maxrecLevel,
  mySubGraph[1..maxrecLevel](= NULL),
  myCoords, msgsReceived[1..maxrecLevel](= 0)
  transmit(= false)

Message alphabet :
  mGraph = {senderCoord, msubGraph, mrecLevel}

Condition : start = true
Action    : start = false
            compute mySubGraph[recLevel] from intra-cell readings
            transmit = true
            recLevel = recLevel + 1

Condition : received mGraph
Action    : merge(mGraph, mySubGraph[mrecLevel])
            msgsReceived[mrecLevel]++

Condition : transmit = true
Action    : message = {myCoords, mySubGraph, recLevel}
            if (recLevel = maxrecLevel)
              exfiltrate message
            else
              send message to Leader(recLevel+1)
            transmit = false

Condition : msgsReceived[recLevel] = 3
Action    : transmit = true
            recLevel = recLevel + 1
)";
}

}  // namespace wsn::synthesis
