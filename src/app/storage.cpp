#include "app/storage.h"

#include <stdexcept>

namespace wsn::app {
namespace {

/// Accumulator that tracks how many already-closed regions arrived in the
/// input pieces, so seal() can attribute newly closed regions to this node.
struct CountingAccumulator {
  QuadAccumulator quad;
  std::uint64_t input_closed = 0;
};

}  // namespace

RegionStore run_and_store(core::MessageFabric& fabric, const FeatureGrid& grid,
                          const TopographicConfig& config) {
  if (fabric.grid().side() != grid.side()) {
    throw std::invalid_argument("run_and_store: fabric/grid side mismatch");
  }
  RegionStore store;
  store.closed_here.assign(fabric.grid().node_count(), 0.0);

  synthesis::ProgramHooks hooks;
  hooks.sense_ops = config.sense_ops;
  hooks.merge_ops = config.merge_ops;

  hooks.sense = [&grid](const core::GridCoord& c) -> std::any {
    return BlockSummary::leaf(c, grid.at(c));
  };

  MergeScratch scratch;  // shared by the round's accumulators
  hooks.merge = [&scratch](std::any& acc, std::any&& incoming) {
    if (!acc.has_value()) acc = CountingAccumulator{QuadAccumulator(scratch)};
    auto& counting = std::any_cast<CountingAccumulator&>(acc);
    auto& piece = std::any_cast<BlockSummary&>(incoming);
    counting.input_closed += piece.closed.size();
    counting.quad.add(std::move(piece));
  };

  hooks.seal = [&store, &fabric](std::any& acc, const core::GridCoord& self,
                                 std::uint32_t level) -> std::any {
    if (level == 0) {
      return std::move(acc);  // the sensed leaf summary itself
    }
    auto& counting = std::any_cast<CountingAccumulator&>(acc);
    if (!counting.quad.complete()) {
      throw std::logic_error("run_and_store: quadrant set incomplete");
    }
    BlockSummary sealed = counting.quad.take();
    // Regions in `sealed.closed` either passed through (already closed in a
    // child piece) or closed during this node's merges.
    const std::uint64_t newly_closed =
        sealed.closed.size() - counting.input_closed;
    store.closed_here[fabric.grid().index_of(self)] +=
        static_cast<double>(newly_closed);
    counting.input_closed = 0;
    return sealed;
  };

  hooks.payload_units = [size_model = config.size_model](const std::any& p) {
    return size_model.units(std::any_cast<const BlockSummary&>(p));
  };

  hooks.exfiltrate = [&store, &fabric](const core::GridCoord& c,
                                       const std::any& payload) {
    const auto& summary = std::any_cast<const BlockSummary&>(payload);
    // Regions still open at the root close here conceptually.
    store.closed_here[fabric.grid().index_of(c)] +=
        static_cast<double>(summary.open.size());
    store.total_regions = finalize(summary).size();
  };

  synthesis::AggregationProgram program(fabric, std::move(hooks));
  program.start_round();
  fabric.simulator().run();
  if (!program.finished()) {
    throw std::runtime_error("run_and_store: round did not complete");
  }
  store.gather_round = program.stats();
  return store;
}

core::PartialResult count_regions_query(core::MessageFabric& fabric,
                                        const RegionStore& store) {
  // Storage nodes: every node holding a nonzero count.
  std::vector<core::GridCoord> members;
  std::vector<double> values;
  for (std::size_t i = 0; i < store.closed_here.size(); ++i) {
    if (store.closed_here[i] != 0.0) {
      members.push_back(fabric.grid().coord_of(i));
      values.push_back(store.closed_here[i]);
    }
  }
  const core::GridCoord root_leader =
      fabric.groups().leader_of({0, 0}, fabric.groups().max_level());

  core::PartialResult result;
  bool done = false;
  if (members.empty()) {
    // No regions anywhere: the answer is 0, known at the root for free.
    result.value = 0.0;
    result.finished = fabric.simulator().now();
    return result;
  }
  core::group_reduce_deadline(fabric, members, root_leader, values,
                              core::ReduceOp::kSum, 1.0, core::kNoDeadline,
                              [&](const core::PartialResult& r) {
                                result = r;
                                done = true;
                              });
  fabric.simulator().run();
  if (!done) {
    throw std::runtime_error("count_regions_query: did not complete");
  }
  return result;
}

}  // namespace wsn::app
