#include "obs/metrics_registry.h"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/json.h"

namespace wsn::obs {

void MetricsRegistry::add_counters(std::string name,
                                   const sim::CounterSet* counters) {
  counters_.push_back({std::move(name), counters});
}

void MetricsRegistry::add_ledger(std::string name,
                                 const net::EnergyLedger* ledger) {
  ledgers_.push_back({std::move(name), ledger});
}

void MetricsRegistry::add_gauge(std::string name, std::function<double()> fn) {
  gauges_.push_back({std::move(name), std::move(fn)});
}

void MetricsRegistry::add_histogram(std::string name,
                                    const Histogram* histogram) {
  histograms_.push_back({std::move(name), histogram});
}

void MetricsRegistry::add_histogram(std::string name,
                                    std::function<Histogram()> fn) {
  histogram_fns_.push_back({std::move(name), std::move(fn)});
}

const Histogram& MetricsRegistry::histogram(const std::string& name) const {
  for (const HistogramEntry& e : histograms_) {
    if (e.name == name) return *e.histogram;
  }
  throw std::out_of_range("MetricsRegistry: unknown histogram " + name);
}

namespace {

void append_ledger_json(std::string& out, const net::EnergyReport& s) {
  out += "{\"total\":";
  json_append_double(out, s.total);
  out += ",\"mean\":";
  json_append_double(out, s.mean);
  out += ",\"stddev\":";
  json_append_double(out, s.stddev);
  out += ",\"cv\":";
  json_append_double(out, s.cv);
  out += ",\"max\":";
  json_append_double(out, s.max);
  out += ",\"min\":";
  json_append_double(out, s.min);
  out += ",\"tx\":";
  json_append_double(out, s.tx);
  out += ",\"rx\":";
  json_append_double(out, s.rx);
  out += ",\"compute\":";
  json_append_double(out, s.compute);
  out += '}';
}

void append_histogram_json(std::string& out, const Histogram& h) {
  out += "{\"count\":";
  out += std::to_string(h.count());
  out += ",\"lo\":";
  json_append_double(out, h.lo());
  out += ",\"hi\":";
  json_append_double(out, h.hi());
  out += ",\"min\":";
  json_append_double(out, h.min());
  out += ",\"max\":";
  json_append_double(out, h.max());
  out += ",\"mean\":";
  json_append_double(out, h.mean());
  out += ",\"p50\":";
  json_append_double(out, h.p50());
  out += ",\"p90\":";
  json_append_double(out, h.p90());
  out += ",\"p95\":";
  json_append_double(out, h.p95());
  out += ",\"p99\":";
  json_append_double(out, h.p99());
  out += ",\"underflow\":";
  out += std::to_string(h.underflow());
  out += ",\"overflow\":";
  out += std::to_string(h.overflow());
  out += ",\"buckets\":[";
  bool first_bucket = true;
  for (std::uint64_t b : h.buckets()) {
    if (!first_bucket) out += ',';
    first_bucket = false;
    out += std::to_string(b);
  }
  out += "]}";
}

}  // namespace

net::EnergyReport MetricsRegistry::ledger_snapshot(
    const std::string& name) const {
  for (const LedgerEntry& e : ledgers_) {
    if (e.name == name) return e.ledger->report();
  }
  throw std::out_of_range("MetricsRegistry: unknown ledger " + name);
}

double MetricsRegistry::gauge(const std::string& name) const {
  for (const GaugeEntry& e : gauges_) {
    if (e.name == name) return e.fn();
  }
  throw std::out_of_range("MetricsRegistry: unknown gauge " + name);
}

std::uint64_t MetricsRegistry::counter(const std::string& name,
                                       const std::string& key) const {
  for (const CounterEntry& e : counters_) {
    if (e.name == name) return e.counters->get(key);
  }
  return 0;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ',';
    first = false;
  };
  for (const CounterEntry& e : counters_) {
    sep();
    json_append_string(out, e.name);
    out += ":{";
    bool first_key = true;
    for (const auto& [key, value] : e.counters->all()) {
      if (!first_key) out += ',';
      first_key = false;
      json_append_string(out, key);
      out += ':';
      out += std::to_string(value);
    }
    out += '}';
  }
  for (const LedgerEntry& e : ledgers_) {
    sep();
    json_append_string(out, e.name);
    out += ':';
    append_ledger_json(out, e.ledger->report());
  }
  for (const GaugeEntry& e : gauges_) {
    sep();
    json_append_string(out, e.name);
    out += ':';
    json_append_double(out, e.fn());
  }
  for (const HistogramEntry& e : histograms_) {
    sep();
    json_append_string(out, e.name);
    out += ':';
    append_histogram_json(out, *e.histogram);
  }
  for (const HistogramFnEntry& e : histogram_fns_) {
    sep();
    json_append_string(out, e.name);
    out += ':';
    append_histogram_json(out, e.fn());
  }
  out += '}';
  return out;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  out << to_json() << '\n';
}

}  // namespace wsn::obs
