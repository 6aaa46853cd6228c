#include "emulation/physical_stack.h"

#include <utility>

#include "net/deployment.h"

namespace wsn::emulation {

PhysicalStack::PhysicalStack(std::size_t grid_side, std::size_t nodes,
                             double range, std::uint64_t seed,
                             net::TopologyKind topology)
    : sim(seed) {
  const net::Rect terrain =
      net::square_terrain(static_cast<double>(grid_side));
  auto positions =
      net::deploy_topology(topology, grid_side, nodes, terrain, sim.rng());
  graph = std::make_unique<net::NetworkGraph>(std::move(positions), range);
  mapper = std::make_unique<CellMapper>(*graph, terrain, grid_side);
  ledger = std::make_unique<net::EnergyLedger>(graph->node_count());
  link = std::make_unique<net::LinkLayer>(
      sim, *graph, net::RadioModel{range, 1.0, 1.0, 1.0}, net::CpuModel{},
      *ledger);
  emulation_result = run_topology_emulation(*link, *mapper);
  binding_result = run_leader_binding(*link, *mapper);
  setup_energy = ledger->total();
  setup_time = sim.now();
  overlay = std::make_unique<OverlayNetwork>(*link, *mapper, emulation_result,
                                             binding_result);
}

bool PhysicalStack::healthy() const {
  return mapper->all_cells_occupied() && mapper->all_cells_connected() &&
         binding_result.unique_leaders;
}

void PhysicalStack::enable_arq(net::ReliableConfig cfg) {
  arq = std::make_unique<net::ReliableChannel>(*link, cfg);
  overlay->attach_arq(*arq);
}

void PhysicalStack::register_metrics(obs::MetricsRegistry& registry) const {
  // Default-prefix link registration: the analyzer's energy invariant looks
  // the ledger up under "link.energy" exactly.
  link->register_metrics(registry);
  overlay->register_metrics(registry);
  emulation::register_metrics(registry, emulation_result);
  emulation::register_metrics(registry, binding_result);
  if (arq) arq->register_metrics(registry);
}

}  // namespace wsn::emulation
