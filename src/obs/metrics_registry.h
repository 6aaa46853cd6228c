// Unified metrics registry.
//
// Before this layer, each component kept its own numbers in its own shape:
// sim::CounterSet strings on VirtualNetwork/LinkLayer, net::EnergyLedger
// totals, ad-hoc uint64 gauges on OverlayNetwork, protocol audit counts on
// EmulationResult/BindingResult. The registry consolidates all of them
// behind one object with one JSON snapshot exporter, so an experiment can
// dump its complete measurement state in a single machine-readable blob.
//
// The registry borrows (never owns) the instruments: registered pointers
// must outlive it or be removed first. Snapshot order is registration
// order; counter keys are sorted, so output is byte-stable across runs.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/energy.h"
#include "obs/histogram.h"
#include "sim/trace.h"

namespace wsn::obs {

class MetricsRegistry {
 public:
  /// Registers a named counter set; keys appear as "<name>.<counter>".
  void add_counters(std::string name, const sim::CounterSet* counters);

  /// Registers a per-node energy ledger, snapshotted as its EnergyReport.
  void add_ledger(std::string name, const net::EnergyLedger* ledger);

  /// Registers a live scalar, polled at snapshot time.
  void add_gauge(std::string name, std::function<double()> fn);

  /// Registers a fixed-bucket histogram, exported as
  /// {count, lo, hi, min, max, mean, p50, p95, p99, underflow, overflow,
  ///  buckets:[...]}. Borrowed like every other instrument.
  void add_histogram(std::string name, const Histogram* histogram);

  /// Registers a histogram rebuilt from live state at snapshot time (e.g.
  /// the residual-energy distribution, which has no long-lived instrument
  /// to borrow). Exported in the same JSON shape as add_histogram.
  void add_histogram(std::string name, std::function<Histogram()> fn);

  /// Polls the named borrowed histogram now. Throws std::out_of_range if
  /// unknown.
  const Histogram& histogram(const std::string& name) const;

  /// Polls the named ledger now. Throws std::out_of_range if unknown.
  net::EnergyReport ledger_snapshot(const std::string& name) const;

  /// Polls the named gauge now. Throws std::out_of_range if unknown.
  double gauge(const std::string& name) const;

  /// Current value of "<counters-name>.<key>", 0 if absent.
  std::uint64_t counter(const std::string& name, const std::string& key) const;

  /// One JSON object capturing every registered instrument, e.g.
  /// {"vnet.counters":{"vnet.send":12,...},
  ///  "vnet.energy":{"total":96.0,"tx":48.0,...},
  ///  "overlay.physical_hops":130.0}
  std::string to_json() const;
  void write_json(std::ostream& out) const;

 private:
  struct CounterEntry { std::string name; const sim::CounterSet* counters; };
  struct LedgerEntry { std::string name; const net::EnergyLedger* ledger; };
  struct GaugeEntry { std::string name; std::function<double()> fn; };
  struct HistogramEntry { std::string name; const Histogram* histogram; };
  struct HistogramFnEntry { std::string name; std::function<Histogram()> fn; };

  std::vector<CounterEntry> counters_;
  std::vector<LedgerEntry> ledgers_;
  std::vector<GaugeEntry> gauges_;
  std::vector<HistogramEntry> histograms_;
  std::vector<HistogramFnEntry> histogram_fns_;
};

}  // namespace wsn::obs
