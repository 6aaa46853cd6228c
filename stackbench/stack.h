// The physical stack the benchmark measures, built through the libraries'
// public API with a host timer around every setup call, plus the seeded
// inputs its workloads run on (topographic query fields, soak fault plans).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "app/boundary.h"
#include "app/feature_grid.h"
#include "app/labeling.h"
#include "emulation/cell_mapper.h"
#include "emulation/emulation_protocol.h"
#include "emulation/failure_detector.h"
#include "emulation/leader_binding.h"
#include "emulation/overlay_network.h"
#include "net/link_layer.h"
#include "net/network_graph.h"
#include "net/reliable_link.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"

namespace stackbench {

using namespace wsn;

/// Network size of one workload: a `grid_side`^2 virtual grid emulated by
/// `nodes` physical nodes (one-per-cell-plus-uniform deployment).
struct Shape {
  std::size_t grid_side = 4;
  std::size_t nodes = 128;
  double range = 1.3;
};

/// Host milliseconds spent in each setup call, in build order.
struct SetupTimes {
  double deploy_ms = 0.0;
  double graph_ms = 0.0;  // NetworkGraph + EnergyLedger + LinkLayer
  double mapper_ms = 0.0;
  double topology_emulation_ms = 0.0;
  double leader_binding_ms = 0.0;
  double overlay_ms = 0.0;  // OverlayNetwork + ReliableChannel attach
  double detector_start_ms = 0.0;

  double total_s() const {
    return (deploy_ms + graph_ms + mapper_ms + topology_emulation_ms +
            leader_binding_ms + overlay_ms + detector_start_ms) /
           1000.0;
  }
};

/// The soaks' detector: membership mode with self-stabilization audits.
emulation::FailureDetectorConfig soak_detector_config();

/// Worst-case leader crash -> claim latency under `cfg`: the remaining
/// lease (first grant is 1.5x), one deferral for an open election, the
/// staggered election close, plus propagation slack.
sim::Time detection_bound(const emulation::FailureDetectorConfig& cfg);

/// deploy -> graph -> mapper -> topology emulation -> leader binding ->
/// overlay + ARQ, each call timed. The detector is added separately (only
/// the soaks run one).
struct Stack {
  Stack(const Shape& shape, std::uint64_t seed);

  /// The paper's preconditions: every cell occupied and internally
  /// connected, one leader per cell.
  bool healthy() const;

  /// A fault-free all-cell sum reduce to the collector cell (0,0) reaches
  /// every cell and sums to the cell count. Advances the simulation.
  bool reduce_reaches_every_cell();

  /// A topographic query over an all-feature grid completes with the
  /// centralized answer: every route the quadtree program takes exists.
  /// Advances the simulation.
  bool serves_queries();

  /// Constructs and starts a FailureDetector (membership and audits on),
  /// timed into setup.detector_start_ms.
  void start_detector();

  sim::Simulator sim;
  std::unique_ptr<net::NetworkGraph> graph;
  std::unique_ptr<emulation::CellMapper> mapper;
  std::unique_ptr<net::EnergyLedger> ledger;
  std::unique_ptr<net::LinkLayer> link;
  emulation::EmulationResult emulation_result;
  emulation::BindingResult binding_result;
  std::unique_ptr<emulation::OverlayNetwork> overlay;
  std::unique_ptr<net::ReliableChannel> arq;
  std::unique_ptr<emulation::FailureDetector> detector;
  SetupTimes setup;
  std::uint64_t setup_events = 0;  // kernel events the setup protocols ran
};

/// Builds a stack that passes healthy() and the reduce precheck (and, with
/// `queries`, serves_queries()), advancing the stack seed deterministically
/// past rejected draws (counted in `rejected`). `before_draw` runs before
/// each draw, so a trace consumer can start afresh on it. Returns null when
/// 16 draws in a row fail.
std::unique_ptr<Stack> build_checked_stack(
    const Shape& shape, std::uint64_t seed, bool queries,
    std::uint64_t& rejected, const std::function<void()>& before_draw);

/// One topographic query input and its centralized reference answer.
struct QueryInput {
  app::FeatureGrid grid;
  app::Labeling reference;
};

/// Query k labels threshold_sample(value_noise_field(seed + k)).
std::vector<QueryInput> make_queries(std::size_t grid_side, std::uint64_t seed,
                                     std::size_t count);

/// True iff the in-network answer lists exactly the reference's regions
/// (area and bounding box), in any order.
bool regions_match(const std::vector<app::RegionInfo>& got,
                   const app::Labeling& reference);

/// A leader crash the soak's recovery check accounts for.
struct PlannedCrash {
  core::GridCoord cell;
  sim::Time at = 0.0;  // plan-relative
};

/// A soak campaign: the fault plan plus the leader crashes in it.
struct SoakPlan {
  sim::FaultPlan plan;
  std::vector<PlannedCrash> leader_crashes;
};

/// Fixed-composition seeded campaign over `horizon` time units: two leader
/// crashes and two member crashes, each followed by a recovery, one loss
/// burst and two membership corruption strikes, each in its own cell. It
/// never touches the collector cell (0,0), never crashes a node whose loss
/// would disconnect its cell, and crashes leaders only of cells with at
/// least two other members.
SoakPlan make_soak_plan(const Stack& stack, std::uint64_t seed,
                        sim::Time horizon);

}  // namespace stackbench
