// Radio model: short-range omnidirectional antennas.
//
// Section 3.2 of the paper: "For such antennas, the reception and
// transmission energy is of similar magnitude, and depends only on the radio
// electronics" (citing Min & Chandrakasan). The default model therefore
// charges equal, distance-independent energy per unit of data for tx and rx.
// A configurable per-unit cost keeps the model honest for sensitivity
// studies without departing from the paper's assumption by default.
#pragma once

#include <cstdint>

namespace wsn::net {

/// Unit-disk radio with uniform per-data-unit energy costs.
struct RadioModel {
  /// Transmission range in meters (the paper's rho).
  double range = 1.0;
  /// Energy to transmit one unit of data (paper's uniform cost: 1).
  double tx_energy_per_unit = 1.0;
  /// Energy to receive one unit of data (paper's uniform cost: 1).
  double rx_energy_per_unit = 1.0;
  /// Units of data transmittable per unit latency (paper's B).
  double bandwidth = 1.0;

  /// Time to push `units` of data over one hop.
  double tx_latency(double units) const { return units / bandwidth; }
};

/// Node processing model: R computations per unit latency (paper's R).
struct CpuModel {
  double ops_per_unit_latency = 1.0;
  /// Energy to perform one unit of computation (paper's uniform cost: 1).
  double energy_per_op = 1.0;

  double compute_latency(double ops) const { return ops / ops_per_unit_latency; }
};

}  // namespace wsn::net
