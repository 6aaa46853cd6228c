// The paper's Section 5 runtime as one object: deploy nodes over the
// terrain, map them to virtual-grid cells, emulate the grid topology (5.1),
// bind one leader per cell (5.2), and route virtual messages over the
// resulting overlay. Benches, examples, tests and the chaos soak all build
// their physical network through this type, so every seed names one
// network everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "emulation/cell_mapper.h"
#include "emulation/emulation_protocol.h"
#include "emulation/leader_binding.h"
#include "emulation/overlay_network.h"
#include "net/energy.h"
#include "net/link_layer.h"
#include "net/network_graph.h"
#include "net/reliable_link.h"
#include "net/topology_factory.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"

namespace wsn::emulation {

/// A fully initialized physical deployment emulating a `grid_side` virtual
/// grid: `nodes` nodes placed by `topology` (kGrid is the paper's
/// one-per-cell-plus-uniform deployment), a unit-disk radio of `range` cell
/// sides, and topology emulation and leader binding already converged.
struct PhysicalStack {
  PhysicalStack(std::size_t grid_side, std::size_t nodes, double range,
                std::uint64_t seed,
                net::TopologyKind topology = net::TopologyKind::kGrid);
  // The layers hold references to `sim` and to each other.
  PhysicalStack(const PhysicalStack&) = delete;
  PhysicalStack& operator=(const PhysicalStack&) = delete;

  /// The paper's preconditions: every cell occupied, every cell's members
  /// connected, and exactly one leader bound per cell.
  bool healthy() const;

  /// Routes every overlay hop through a ReliableChannel (ARQ) from now on.
  /// Call after construction, before running workloads; the channel takes
  /// over the raw link receivers.
  void enable_arq(net::ReliableConfig cfg = {});

  /// Registers every instrument of the stack in one call: link counters and
  /// the physical energy ledger, overlay gauges, the emulation and binding
  /// audit counts, and the ARQ counters when enabled.
  void register_metrics(obs::MetricsRegistry& registry) const;

  sim::Simulator sim;
  std::unique_ptr<net::NetworkGraph> graph;
  std::unique_ptr<CellMapper> mapper;
  std::unique_ptr<net::EnergyLedger> ledger;
  std::unique_ptr<net::LinkLayer> link;
  EmulationResult emulation_result;
  BindingResult binding_result;
  std::unique_ptr<OverlayNetwork> overlay;
  std::unique_ptr<net::ReliableChannel> arq;  // set by enable_arq()
  // Ledger total and simulated time once emulation and binding converged.
  double setup_energy = 0.0;
  double setup_time = 0.0;
};

}  // namespace wsn::emulation
