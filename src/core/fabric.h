// MessageFabric: the execution interface of the virtual architecture.
//
// A program synthesized for the virtual architecture only ever talks to this
// interface: grid-coordinate-addressed send/receive, group leader lookup,
// and metered computation. Two implementations exist:
//
//   * core::VirtualNetwork  - the designer's model: costs follow the uniform
//     cost model directly on the virtual grid (used for analysis).
//   * emulation::OverlayNetwork - the runtime system of Section 5: the same
//     calls are realized by multi-hop routing over an arbitrary physical
//     deployment through topology emulation and leader binding.
//
// Keeping programs fabric-agnostic is the library's rendering of the
// paper's methodology: analyze on the virtual architecture, execute on the
// real network, and compare.
#pragma once

#include <any>
#include <cstdint>
#include <functional>

#include "core/cost_model.h"
#include "core/grid_topology.h"
#include "core/groups.h"
#include "sim/simulator.h"

namespace wsn::core {

/// A message delivered to a virtual node.
struct VirtualMessage {
  GridCoord sender;
  double size_units = 1.0;
  std::any payload;
};

/// Abstract message-passing surface shared by the virtual and emulated
/// physical layers.
class MessageFabric {
 public:
  /// Owns the message it is handed: a forwarder moves it on.
  using Handler = std::function<void(VirtualMessage&&)>;

  virtual ~MessageFabric() = default;

  virtual sim::Simulator& simulator() = 0;
  virtual const GridTopology& grid() const = 0;
  virtual const GroupHierarchy& groups() const = 0;

  /// Installs the receive handler of virtual node `c`.
  virtual void set_receiver(const GridCoord& c, Handler h) = 0;

  /// Sends `payload` from virtual node `from` to virtual node `to`.
  virtual void send(const GridCoord& from, const GridCoord& to,
                    std::any payload, double size_units) = 0;

  /// Charges `ops` units of computation to virtual node `c` and returns the
  /// latency they take; callers schedule follow-up work after that latency.
  virtual sim::Time compute(const GridCoord& c, double ops) = 0;

  /// Generation number of the binding executing virtual node `c`. Fabrics
  /// whose virtual nodes can migrate between physical executors (leader
  /// re-binding after a crash) bump this on every rebind; collectives stamp
  /// contributions with it so a deposed leader's in-flight traffic is
  /// rejected instead of double-counted. The virtual layer never rebinds,
  /// so the default is a constant 0.
  virtual std::uint64_t binding_epoch(const GridCoord& c) const {
    (void)c;
    return 0;
  }

  /// Group-communication primitive: send to the level-`level` leader of the
  /// group containing `from`, addressed as a logical entity (Section 3.2).
  void send_to_leader(const GridCoord& from, std::uint32_t level,
                      std::any payload, double size_units) {
    send(from, groups().leader_of(from, level), std::move(payload),
         size_units);
  }
};

}  // namespace wsn::core
