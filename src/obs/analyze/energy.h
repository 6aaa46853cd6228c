// Trace-derived energy attribution.
//
// Replays the energy-charging rules of the live layers over a captured
// trace, event by event, at the paper's uniform unit costs: a virtual-layer
// send charges the sender's radio, every relay hop charges rx+tx at the
// relay, every delivery charges the receiver; on the physical link layer
// broadcast/unicast charge the transmitter and each link delivery charges
// its receiver. Per layer, the tx/rx totals — on a complete capture — must
// equal what the EnergyLedger accumulated live (compute energy is not
// traced, so the comparison covers radio energy only; see check.h).
//
// On top of a per-node map, hotspot_report() folds per-node energy through
// the group hierarchy to quantify the leader/follower imbalance the paper's
// energy-balance discussion predicts: leaders aggregate traffic, so mean
// leader spend grows with level while follower spend stays flat.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "obs/trace.h"

namespace wsn::obs::analyze {

/// The one numeric attribute reader every analyzer shares: the value of the
/// first attr keyed `key`, integer kinds widened to double; `fallback` when
/// the attr is absent or holds a code. Inline because the streaming
/// checker calls it on every event.
inline double attr_num(const TraceEvent& ev, AttrKey key,
                       double fallback = 0.0) {
  for (const Attr& a : ev.attrs) {
    if (a.key != key) continue;
    if (const auto* d = std::get_if<double>(&a.value)) return *d;
    if (const auto* u = std::get_if<std::uint64_t>(&a.value)) {
      return static_cast<double>(*u);
    }
    if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
      return static_cast<double>(*i);
    }
    return fallback;
  }
  return fallback;
}

/// `v` as a T (std::int64_t or std::uint64_t): a stored integer as is and
/// an integral double converted, when T holds them; nothing for any other
/// value (a code, a fraction, NaN, an integer out of T's range).
template <typename T>
std::optional<T> int_value(const AttrValue& v) {
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    if (std::in_range<T>(*u)) return static_cast<T>(*u);
  } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
    if (std::in_range<T>(*i)) return static_cast<T>(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    // T's range is [min, 2^digits); both bounds are exact doubles, and NaN
    // fails every comparison.
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi = 2.0 * static_cast<double>(
                                    std::uint64_t{1}
                                    << (std::numeric_limits<T>::digits - 1));
    if (*d >= lo && *d < hi && *d == std::trunc(*d)) {
      return static_cast<T>(*d);
    }
  }
  return std::nullopt;
}

/// The one integer attribute reader: the first attr keyed `key` as a T
/// (see int_value), `fallback` when the attr is absent. Ids go through it,
/// never through a cast of attr_num, so a foreign value reads as nothing
/// instead of as undefined behaviour.
template <typename T>
std::optional<T> attr_int(const TraceEvent& ev, AttrKey key, T fallback = 0) {
  for (const Attr& a : ev.attrs) {
    if (a.key == key) return int_value<T>(a.value);
  }
  return fallback;
}

/// Radio energy spent transmitting and receiving, by one node or a layer.
struct RadioEnergy {
  double tx = 0.0;
  double rx = 0.0;

  double total() const { return tx + rx; }

  RadioEnergy& operator+=(const RadioEnergy& e) {
    tx += e.tx;
    rx += e.rx;
    return *this;
  }
};

/// The radio energy `ev` charges to its node on its own layer (kVirtual or
/// kLink), one unit per unit of message size and radio side; nothing when
/// it charges no radio. Self-sends are free (no radio), matching
/// VirtualNetwork; lost or dead-receiver packets emit no deliver event and
/// therefore — correctly — attract no rx charge. These are the only
/// charging rules: the checker folds them into per-layer totals and
/// wsn-inspect energy-map into per-node maps.
std::optional<RadioEnergy> radio_charge(const TraceEvent& ev);

/// Energy attributed to one layer, keyed by that layer's node id space
/// (grid indices for the virtual layer, physical NodeIds for the link
/// layer — the two spaces are unrelated and kept apart). Only the ids a
/// trace charges hold an entry, so its size is bounded by the nodes the
/// trace names, not by the largest id.
struct LayerEnergy {
  std::map<std::int64_t, RadioEnergy> nodes;  // ascending id
  double tx = 0.0;
  double rx = 0.0;

  double total() const { return tx + rx; }
  bool empty() const { return nodes.empty(); }

  /// Charges `e` to `node` and to the layer. Negative ids (unbound
  /// context) are folded into node 0 so no charge is silently dropped.
  void charge(std::int64_t node, const RadioEnergy& e);
};

struct EnergyMap {
  LayerEnergy vnet;
  LayerEnergy link;
};

/// Folds one event's radio charge into `map`. wsn-inspect energy-map folds
/// whole captures through it one event at a time.
void accumulate_energy(EnergyMap& map, const TraceEvent& ev);

/// Mean radio energy of level-k leaders vs. everyone else.
struct LevelEnergy {
  std::uint32_t level = 0;
  std::size_t leader_count = 0;
  double leader_mean = 0.0;
  double follower_mean = 0.0;

  /// Leader/follower imbalance; 0 when followers spent nothing.
  double imbalance() const {
    return follower_mean > 0.0 ? leader_mean / follower_mean : 0.0;
  }
};

struct HotspotReport {
  std::size_t side = 0;            // inferred (or given) grid side
  std::int64_t hottest_node = -1;
  double hottest_energy = 0.0;
  double mean_energy = 0.0;
  /// Per-hierarchy-level imbalance, levels 1..max. Empty when the node
  /// count does not form a power-of-two grid (no hierarchy to fold over).
  std::vector<LevelEnergy> levels;

  /// Hottest-node spend relative to the mean: the concentration factor.
  double hotspot_factor() const {
    return mean_energy > 0.0 ? hottest_energy / mean_energy : 0.0;
  }
};

/// Folds a virtual-layer energy map through the group hierarchy (leaders
/// at the north-west corner of each block). `side` of 0 infers the smallest
/// square grid covering the highest charged node id. Work and memory are
/// bounded by the charged nodes and the levels, not by the grid's size.
HotspotReport hotspot_report(const LayerEnergy& vnet, std::size_t side = 0);

}  // namespace wsn::obs::analyze
