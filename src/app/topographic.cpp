#include "app/topographic.h"

#include <memory>
#include <stdexcept>

namespace wsn::app {

synthesis::ProgramHooks topographic_hooks(
    const FeatureGrid& grid, const TopographicConfig& config,
    std::vector<RegionInfo>* regions_out) {
  synthesis::ProgramHooks hooks;
  hooks.sense_ops = config.sense_ops;
  hooks.merge_ops = config.merge_ops;

  hooks.sense = [&grid](const core::GridCoord& c) -> std::any {
    return BlockSummary::leaf(c, grid.at(c));
  };

  // The round's accumulators share one merge workspace.
  auto scratch = std::make_shared<MergeScratch>();
  hooks.merge = [scratch](std::any& acc, std::any&& incoming) {
    if (!acc.has_value()) acc = QuadAccumulator(*scratch);
    auto& accumulator = std::any_cast<QuadAccumulator&>(acc);
    accumulator.add(std::move(std::any_cast<BlockSummary&>(incoming)));
  };

  hooks.seal = [](std::any& acc, const core::GridCoord& /*self*/,
                  std::uint32_t level) -> std::any {
    if (level == 0) {
      // Level 0 holds the sensed leaf summary itself; pass it on.
      return std::move(acc);
    }
    auto& accumulator = std::any_cast<QuadAccumulator&>(acc);
    if (!accumulator.complete()) {
      throw std::logic_error("topographic seal: quadrant set incomplete");
    }
    return accumulator.take();
  };

  hooks.payload_units = [size_model = config.size_model](const std::any& p) {
    return size_model.units(std::any_cast<const BlockSummary&>(p));
  };

  hooks.exfiltrate = [regions_out](const core::GridCoord&,
                                   const std::any& payload) {
    if (regions_out != nullptr) {
      *regions_out = finalize(std::any_cast<const BlockSummary&>(payload));
    }
  };

  return hooks;
}

TopographicOutcome run_topographic_query(core::MessageFabric& fabric,
                                         const FeatureGrid& grid,
                                         const TopographicConfig& config) {
  if (fabric.grid().side() != grid.side()) {
    throw std::invalid_argument(
        "run_topographic_query: fabric/grid side mismatch");
  }
  TopographicOutcome outcome;
  synthesis::AggregationProgram program(
      fabric, topographic_hooks(grid, config, &outcome.regions));
  program.start_round();
  fabric.simulator().run();
  if (!program.finished()) {
    throw std::runtime_error("run_topographic_query: round did not complete");
  }
  outcome.round = program.stats();
  return outcome;
}

}  // namespace wsn::app
