// Shared helpers for the experiment benches: canonical physical-network
// stack construction, formatting, and the machine-readable --json emitter.
#pragma once

#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "emulation/cell_mapper.h"
#include "emulation/emulation_protocol.h"
#include "emulation/leader_binding.h"
#include "emulation/overlay_network.h"
#include "net/deployment.h"
#include "net/link_layer.h"
#include "net/reliable_link.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/scoped_timer.h"
#include "sim/simulator.h"

namespace wsn::bench {

/// A fully initialized physical deployment emulating a `grid_side` virtual
/// grid: one-per-cell-plus-uniform deployment, unit-disk radio, emulation
/// protocol and leader binding already converged.
struct PhysicalStack {
  PhysicalStack(std::size_t grid_side, std::size_t nodes, double range,
                std::uint64_t seed, double jitter = 0.0)
      : sim(seed) {
    const net::Rect terrain =
        net::square_terrain(static_cast<double>(grid_side));
    net::DeploymentConfig cfg;
    cfg.kind = net::DeploymentKind::kOnePerCellPlus;
    cfg.node_count = nodes;
    cfg.terrain = terrain;
    cfg.cells_per_side = grid_side;
    auto positions = net::deploy(cfg, sim.rng());
    graph = std::make_unique<net::NetworkGraph>(std::move(positions), range);
    mapper =
        std::make_unique<emulation::CellMapper>(*graph, terrain, grid_side);
    ledger = std::make_unique<net::EnergyLedger>(graph->node_count());
    link = std::make_unique<net::LinkLayer>(
        sim, *graph, net::RadioModel{range, 1.0, 1.0, 1.0}, net::CpuModel{},
        *ledger);
    emulation_result = emulation::run_topology_emulation(*link, *mapper, jitter);
    binding_result = emulation::run_leader_binding(*link, *mapper);
    setup_energy = ledger->total();
    setup_time = sim.now();
    overlay = std::make_unique<emulation::OverlayNetwork>(
        *link, *mapper, emulation_result, binding_result);
  }

  bool healthy() const {
    return mapper->all_cells_occupied() && mapper->all_cells_connected() &&
           binding_result.unique_leaders;
  }

  /// Routes every overlay hop through a ReliableChannel (ARQ) from now on.
  /// Call after construction, before running workloads; the channel takes
  /// over the raw link receivers.
  void enable_arq(net::ReliableConfig cfg = {}) {
    arq = std::make_unique<net::ReliableChannel>(*link, cfg);
    overlay->attach_arq(*arq);
  }

  /// Registers every instrument of the stack (overlay gauges, link
  /// counters, physical energy ledger, protocol audit counts, ARQ counters
  /// when enabled) in one call.
  void register_metrics(obs::MetricsRegistry& registry) const {
    // Default-prefix link registration: the analyzer's energy invariant
    // looks the ledger up under "link.energy" exactly.
    link->register_metrics(registry);
    overlay->register_metrics(registry);
    emulation::register_metrics(registry, emulation_result);
    emulation::register_metrics(registry, binding_result);
    if (arq) arq->register_metrics(registry);
  }

  sim::Simulator sim;
  std::unique_ptr<net::NetworkGraph> graph;
  std::unique_ptr<emulation::CellMapper> mapper;
  std::unique_ptr<net::EnergyLedger> ledger;
  std::unique_ptr<net::LinkLayer> link;
  emulation::EmulationResult emulation_result;
  emulation::BindingResult binding_result;
  std::unique_ptr<emulation::OverlayNetwork> overlay;
  std::unique_ptr<net::ReliableChannel> arq;  // set by enable_arq()
  double setup_energy = 0.0;
  double setup_time = 0.0;
};

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& claim) {
  std::printf("=== %s: %s ===\n", id.c_str(), title.c_str());
  std::printf("Paper artifact/claim: %s\n\n", claim.c_str());
}

/// Value of `--json <path>` in argv, or "" when absent. Every bench accepts
/// this flag; with it, the bench appends one JSON object per result row to
/// `<path>` alongside its human-readable table.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return "";
}

/// Machine-readable result emitter: one JSON object per row, JSONL framing.
///
/// Contract (the BENCH_*.json perf-trajectory consumer relies on it):
///   {"bench":"<bench id>", "<field>":<number|string>, ...}
/// Field names are bench-specific; numeric fields round-trip as written.
/// A default-constructed or empty-path writer is disabled and row() is a
/// no-op, so benches call it unconditionally.
class JsonWriter {
 public:
  JsonWriter() = default;
  explicit JsonWriter(const std::string& path) {
    if (!path.empty()) out_ = std::fopen(path.c_str(), "w");
  }
  ~JsonWriter() {
    if (out_ != nullptr) std::fclose(out_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  bool enabled() const { return out_ != nullptr; }

  void row(const std::string& bench,
           std::initializer_list<std::pair<const char*, obs::AttrValue>>
               fields) {
    if (out_ == nullptr) return;
    std::string line = "{\"bench\":";
    obs::json_append_string(line, bench);
    for (const auto& [key, value] : fields) {
      line += ',';
      obs::json_append_string(line, key);
      line += ':';
      obs::json_append_value(line, value);
    }
    line += "}\n";
    std::fwrite(line.data(), 1, line.size(), out_);
  }

 private:
  std::FILE* out_ = nullptr;
};

}  // namespace wsn::bench
