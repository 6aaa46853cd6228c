#include "obs/analyze/cli.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/table.h"
#include "obs/analyze/bench_compare.h"
#include "obs/analyze/check.h"
#include "obs/analyze/energy.h"
#include "obs/analyze/flows.h"
#include "obs/analyze/incremental.h"
#include "obs/analyze/json_reader.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/stream_sink.h"
#include "obs/trace_reader.h"

namespace wsn::obs::analyze {

namespace {

using analysis::Table;

constexpr int kOk = 0;
constexpr int kFindings = 1;
constexpr int kUsage = 2;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void print_warnings(const std::vector<std::string>& findings,
                    std::ostream& out) {
  for (const std::string& f : findings) out << "warning: " << f << "\n";
}

/// "10%" => 0.10, "0.1" => 0.1. Throws on junk or negatives.
double parse_tolerance(const std::string& s) {
  std::size_t used = 0;
  double v = std::stod(s, &used);
  if (used < s.size()) {
    if (s.substr(used) != "%") {
      throw std::runtime_error("bad tolerance: " + s);
    }
    v /= 100.0;
  }
  if (v < 0.0) throw std::runtime_error("tolerance must be >= 0");
  return v;
}

/// Simple flag scanner: positional args in order, `--name value` pairs by
/// lookup. Unknown flags are an error to keep the CLI honest.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  const std::string* flag(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return &v;
    }
    return nullptr;
  }

  /// The count flag `name`, or `fallback` when it is absent: decimal digits
  /// only (no sign, no trailing characters) and at most `max`.
  std::uint64_t count(const std::string& name, std::uint64_t fallback,
                      std::uint64_t max =
                          std::numeric_limits<std::uint64_t>::max()) const {
    const std::string* v = flag(name);
    if (v == nullptr) return fallback;
    std::uint64_t n = 0;
    const char* end = v->data() + v->size();
    const auto [stop, ec] = std::from_chars(v->data(), end, n);
    if (ec != std::errc() || stop != end || n > max) {
      throw std::runtime_error(name + " " + *v +
                               " is not a count from 0 to " +
                               std::to_string(max));
    }
    return n;
  }
};

Args scan_args(const std::vector<std::string>& argv, std::size_t start,
               const std::vector<std::string>& known_flags) {
  Args out;
  for (std::size_t i = start; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) == 0) {
      bool known = false;
      for (const std::string& k : known_flags) known = known || k == a;
      if (!known) throw std::runtime_error("unknown flag: " + a);
      if (i + 1 >= argv.size()) {
        throw std::runtime_error(a + " needs a value");
      }
      out.flags.emplace_back(a, argv[++i]);
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

const char* layer_name(Category c) {
  return c == Category::kOverlay ? "overlay" : "virtual";
}

int cmd_flows(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("flows: expected exactly one trace file");
  }
  const std::uint64_t limit =
      args.count("--limit", std::numeric_limits<std::uint64_t>::max());
  // Single streaming pass: flows retire in creation order, so the first
  // `limit` retired flows are the first `limit` flows of the capture. Peak
  // memory is live flows + the shown rows.
  TraceReader reader(args.positional[0]);
  Table t({"flow", "layer", "src", "dst", "hops", "send", "deliver",
           "latency", "wait", "transmit"});
  std::size_t shown = 0;
  FlowCollector collector([&](Flow& f) {
    if (shown >= limit) return;
    ++shown;
    t.row({Table::num(f.id), layer_name(f.layer), Table::num(f.src_node),
           Table::num(f.dst_node), Table::num(f.hops),
           Table::num(f.send_time, 3),
           f.delivered ? Table::num(f.deliver_time, 3) : "-",
           f.delivered ? Table::num(f.latency(), 3) : "-",
           Table::num(f.wait, 3), Table::num(f.transmit, 3)});
  });
  TraceEvent ev;
  while (reader.next(ev)) collector.feed(ev);
  collector.finish();
  out << t.str();
  out << shown << " of " << collector.flows_seen() << " flows\n";
  print_warnings(reader.findings(), out);
  return kOk;
}

int cmd_critical_path(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("critical-path: expected exactly one trace file");
  }
  // The backward walk needs random access over all flows (though not over
  // all events): stream events through the collector, keep only the flows.
  std::vector<Flow> flows;
  std::vector<std::string> warnings;
  {
    TraceReader reader(args.positional[0]);
    FlowCollector collector(
        [&flows](Flow& f) { flows.push_back(std::move(f)); });
    TraceEvent ev;
    while (reader.next(ev)) collector.feed(ev);
    collector.finish();
    warnings = reader.findings();
  }
  print_warnings(warnings, out);
  const CriticalPathReport report = critical_path(flows);
  if (report.chain.empty()) {
    out << "no delivered flows in trace\n";
    return kOk;
  }
  Table t({"flow", "layer", "src", "dst", "send", "deliver", "gap_before",
           "wait", "transmit"});
  for (const ChainLink& link : report.chain) {
    const Flow& f = *link.flow;
    t.row({Table::num(f.id), layer_name(f.layer), Table::num(f.src_node),
           Table::num(f.dst_node), Table::num(f.send_time, 3),
           Table::num(f.deliver_time, 3), Table::num(link.gap_before, 3),
           Table::num(f.wait, 3), Table::num(f.transmit, 3)});
  }
  out << t.str();
  out << "critical path: " << report.chain.size() << " messages, "
      << Table::num(report.total(), 3) << " time units ["
      << Table::num(report.start_time, 3) << ", "
      << Table::num(report.end_time, 3) << "]\n";
  out << "  queueing  " << Table::num(report.message_wait, 3) << "\n"
      << "  transmit  " << Table::num(report.message_transmit, 3) << "\n"
      << "  node gaps " << Table::num(report.node_gaps, 3) << "\n";
  return kOk;
}

/// `layer`'s nodes, the biggest spender first.
std::vector<std::pair<std::int64_t, RadioEnergy>> by_spend(
    const LayerEnergy& layer) {
  std::vector<std::pair<std::int64_t, RadioEnergy>> nodes(layer.nodes.begin(),
                                                          layer.nodes.end());
  std::sort(nodes.begin(), nodes.end(), [](const auto& a, const auto& b) {
    return a.second.total() > b.second.total();
  });
  return nodes;
}

int cmd_energy_map(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("energy-map: expected exactly one trace file");
  }
  // Incremental accumulation: memory is one entry per charged node, flat
  // in the trace length.
  EnergyMap map;
  {
    TraceReader reader(args.positional[0]);
    TraceEvent ev;
    while (reader.next(ev)) accumulate_energy(map, ev);
    print_warnings(reader.findings(), out);
  }
  // A side of 2^32 or more would overflow the side * side cell count.
  const std::uint64_t side =
      args.count("--side", 0, std::numeric_limits<std::uint32_t>::max());
  const std::uint64_t top = args.count("--top", 5);

  for (const auto& [label, layer] :
       {std::pair<const char*, const LayerEnergy&>{"virtual", map.vnet},
        std::pair<const char*, const LayerEnergy&>{"link", map.link}}) {
    if (layer.empty()) continue;
    out << label << " layer: tx " << Table::num(layer.tx, 3) << ", rx "
        << Table::num(layer.rx, 3) << ", total "
        << Table::num(layer.total(), 3) << " across " << layer.nodes.size()
        << " nodes\n";
    const auto ranked = by_spend(layer);
    Table t({"node", "tx", "rx", "total"});
    for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
      const auto& [node, n] = ranked[i];
      t.row({Table::num(node), Table::num(n.tx, 3), Table::num(n.rx, 3),
             Table::num(n.total(), 3)});
    }
    out << t.str();
  }

  if (!map.vnet.empty()) {
    const HotspotReport hs = hotspot_report(map.vnet, side);
    out << "hotspot: node " << hs.hottest_node << " spent "
        << Table::num(hs.hottest_energy, 3) << " ("
        << Table::num(hs.hotspot_factor(), 2) << "x the grid mean, side "
        << hs.side << ")\n";
    if (!hs.levels.empty()) {
      Table t({"level", "leaders", "leader_mean", "follower_mean",
               "imbalance"});
      for (const LevelEnergy& le : hs.levels) {
        t.row({Table::num(le.level), Table::num(le.leader_count),
               Table::num(le.leader_mean, 3), Table::num(le.follower_mean, 3),
               Table::num(le.imbalance(), 2)});
      }
      out << t.str();
    }
  }
  if (map.vnet.empty() && map.link.empty()) {
    out << "no radio events in trace\n";
  }

  // Residual view: against a uniform battery budget, who is closest to
  // dying? Lists the `top` lowest-residual link-layer nodes and the count
  // already at or below zero.
  if (const std::string* v = args.flag("--budget")) {
    const double budget = std::stod(*v);
    if (map.link.empty()) {
      out << "residual: no link-layer events in trace\n";
      return kOk;
    }
    const auto ranked = by_spend(map.link);
    std::size_t depleted = 0;
    for (const auto& [node, n] : ranked) {
      if (n.total() >= budget) ++depleted;
    }
    Table t({"node", "spent", "residual"});
    for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
      const auto& [node, n] = ranked[i];
      t.row({Table::num(node), Table::num(n.total(), 3),
             Table::num(std::max(budget - n.total(), 0.0), 3)});
    }
    out << "residual vs budget " << Table::num(budget, 3) << ": " << depleted
        << " of " << map.link.nodes.size() << " nodes depleted\n";
    out << t.str();
  }
  return kOk;
}

/// Ceiling on `histogram --buckets`: each histogram allocates its buckets
/// up front, so the flag alone must not be able to size that allocation.
constexpr std::uint64_t kMaxBuckets = 65536;

int cmd_histogram(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("histogram: expected exactly one trace file");
  }
  const std::uint64_t buckets = args.count("--buckets", 32, kMaxBuckets);
  const std::string& path = args.positional[0];

  // Two streaming passes instead of one materialized flow list: pass 1
  // finds each metric's extent (histogram bounds), pass 2 fills the
  // buckets. Memory stays at live-flows + buckets either way.
  auto latency_of = [](const Flow& f) { return f.latency(); };
  auto latency_in = [](const Flow& f) { return f.delivered && !f.self_send; };
  auto size_of = [](const Flow& f) { return f.size; };
  auto size_in = [](const Flow& f) { return f.has_send; };

  struct Extent {
    double lo = 0.0, hi = 0.0;
    std::size_t n = 0;
    void add(double v) {
      if (n == 0) lo = hi = v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      ++n;
    }
  };
  Extent latency_ext, size_ext;
  std::vector<std::string> warnings;
  {
    TraceReader reader(path);
    FlowCollector collector([&](Flow& f) {
      if (latency_in(f)) latency_ext.add(latency_of(f));
      if (size_in(f)) size_ext.add(size_of(f));
    });
    TraceEvent ev;
    while (reader.next(ev)) collector.feed(ev);
    collector.finish();
    warnings = reader.findings();
  }

  std::optional<Histogram> latency_h, size_h;
  if (latency_ext.n > 0) {
    latency_h.emplace(latency_ext.lo,
                      latency_ext.hi > latency_ext.lo ? latency_ext.hi
                                                      : latency_ext.lo + 1.0,
                      buckets);
  }
  if (size_ext.n > 0) {
    size_h.emplace(size_ext.lo,
                   size_ext.hi > size_ext.lo ? size_ext.hi : size_ext.lo + 1.0,
                   buckets);
  }
  if (latency_h.has_value() || size_h.has_value()) {
    TraceReader reader(path);
    FlowCollector collector([&](Flow& f) {
      if (latency_h.has_value() && latency_in(f)) {
        latency_h->add(latency_of(f));
      }
      if (size_h.has_value() && size_in(f)) size_h->add(size_of(f));
    });
    TraceEvent ev;
    while (reader.next(ev)) collector.feed(ev);
    collector.finish();
  }

  auto summarize = [&](const char* what, const std::optional<Histogram>& h) {
    if (!h.has_value()) {
      out << what << ": no samples\n";
      return;
    }
    out << what << ": n " << h->count() << ", mean "
        << Table::num(h->mean(), 3) << ", p50 " << Table::num(h->p50(), 3)
        << ", p90 " << Table::num(h->p90(), 3) << ", p95 "
        << Table::num(h->p95(), 3) << ", p99 " << Table::num(h->p99(), 3)
        << ", max " << Table::num(h->max(), 3) << "\n";
  };
  summarize("latency", latency_h);
  summarize("size", size_h);
  print_warnings(warnings, out);
  return kOk;
}

int cmd_check(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("check: expected exactly one trace file");
  }
  // Single-pass streaming check: every invariant family (structural,
  // energy, reliability, fd, depletion, self-stabilization) folds in as
  // events arrive, and a flow's state is dropped once it retires — peak
  // RSS tracks live flows, not capture size.
  std::optional<JsonValue> snapshot;
  if (const std::string* metrics = args.flag("--metrics")) {
    snapshot = parse_json(read_file(*metrics));
  }
  StreamingChecker checker;
  TraceReader reader(args.positional[0]);
  TraceEvent ev;
  while (reader.next(ev)) checker.feed(ev);
  CheckReport report =
      checker.finish(snapshot.has_value() ? &*snapshot : nullptr);
  // A truncated capture explains most downstream violations; surface the
  // reader's findings first.
  report.issues.insert(report.issues.begin(), reader.findings().begin(),
                       reader.findings().end());
  out << report.events_seen << " events, " << report.flows_checked
      << " flows, " << report.collectives_checked << " collectives\n";
  if (report.ok()) {
    out << "all invariants hold\n";
    return kOk;
  }
  for (const std::string& issue : report.issues) out << "FAIL " << issue << "\n";
  out << report.issues.size() << " invariant violation(s)\n";
  return kFindings;
}

int cmd_convert(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("convert: expected exactly one trace input");
  }
  const std::string* out_path = args.flag("--out");
  if (out_path == nullptr) {
    throw std::runtime_error("convert: needs --out PATH");
  }
  std::string format = "jsonl";
  if (const std::string* v = args.flag("--format")) format = *v;

  TraceReader reader(args.positional[0]);
  if (format == "jsonl") {
    // Streaming re-encode through one reused buffer; the bytes are
    // identical to a direct write_jsonl export of the same events.
    std::ofstream o(*out_path, std::ios::binary);
    if (!o) throw std::runtime_error("cannot write " + *out_path);
    std::string line;
    TraceEvent ev;
    while (reader.next(ev)) {
      line.clear();
      append_jsonl(ev, line);
      line += '\n';
      o.write(line.data(), static_cast<std::streamsize>(line.size()));
    }
    if (!o) throw std::runtime_error("cannot write " + *out_path);
  } else if (format == "wtr") {
    StreamSinkConfig config;
    config.directory = *out_path;
    config.format = TraceFormat::kWtr;
    config.segment_bytes = args.count("--segment-bytes", config.segment_bytes);
    StreamingFileSink sink(config);
    TraceEvent ev;
    while (reader.next(ev)) sink.accept(ev);
    if (!sink.close()) {
      throw std::runtime_error("convert: " + sink.error());
    }
  } else {
    throw std::runtime_error("convert: unknown --format " + format +
                             " (jsonl or wtr)");
  }
  out << reader.events_read() << " events (" << reader.format() << " -> "
      << format << ") -> " << *out_path << "\n";
  print_warnings(reader.findings(), out);
  return reader.findings().empty() ? kOk : kFindings;
}

int cmd_info(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("info: expected exactly one trace input");
  }
  TraceReader reader(args.positional[0]);
  TraceEvent ev;
  bool any = false;
  double t_lo = 0.0, t_hi = 0.0;
  while (reader.next(ev)) {
    if (!any) t_lo = t_hi = ev.time;
    t_lo = std::min(t_lo, ev.time);
    t_hi = std::max(t_hi, ev.time);
    any = true;
  }
  out << "format    : " << reader.format() << "\n";
  out << "segments  : " << reader.segments().size() << "\n";
  out << "events    : " << reader.events_read() << "\n";
  if (any) {
    out << "time range: [" << Table::num(t_lo, 3) << ", "
        << Table::num(t_hi, 3) << "]\n";
  } else {
    out << "time range: (empty)\n";
  }
  Table t({"segment", "events", "bytes", "complete"});
  for (const TraceReader::SegmentSummary& s : reader.segments()) {
    t.row({s.path, Table::num(s.events), Table::num(s.bytes),
           s.complete ? "yes" : "NO"});
  }
  out << t.str();
  print_warnings(reader.findings(), out);
  return reader.findings().empty() ? kOk : kFindings;
}

int cmd_bench_compare(const Args& args, std::ostream& out) {
  const std::string* baseline = args.flag("--baseline");
  const std::string* current = args.flag("--current");
  if (baseline == nullptr || current == nullptr || !args.positional.empty()) {
    throw std::runtime_error(
        "bench-compare: needs --baseline FILE and --current FILE");
  }
  CompareOptions options;
  if (const std::string* v = args.flag("--tolerance")) {
    options.tolerance = parse_tolerance(*v);
  }
  if (const std::string* v = args.flag("--wallclock-tolerance")) {
    options.wallclock_tolerance = parse_tolerance(*v);
  }
  if (const std::string* v = args.flag("--bench")) {
    options.bench_filter = *v;
  }
  const CompareReport report =
      compare_bench(read_file(*baseline), read_file(*current), options);
  out << report.rows_compared << " rows, " << report.fields_compared
      << " fields compared (tolerance "
      << Table::num(options.tolerance * 100.0, 1) << "%";
  if (options.wallclock_tolerance >= 0) {
    out << ", wall clock one-sided "
        << Table::num(options.wallclock_tolerance * 100.0, 1) << "%";
  }
  if (!options.bench_filter.empty()) {
    out << ", bench '" << options.bench_filter << "' only";
  }
  out << ")\n";
  for (const std::string& note : report.notes) out << "note: " << note << "\n";
  for (const std::string& m : report.mismatches) {
    out << "MISMATCH " << m << "\n";
  }
  if (!report.regressions.empty()) {
    Table t({"bench", "row", "field", "baseline", "current", "change"});
    for (const FieldDelta& d : report.regressions) {
      t.row({d.bench, Table::num(d.row), d.field, Table::num(d.baseline, 4),
             Table::num(d.current, 4),
             Table::num(d.rel_change() * 100.0, 2) + "%"});
    }
    out << t.str();
  }
  if (report.ok()) {
    out << "no regressions\n";
    return kOk;
  }
  out << report.regressions.size() << " regression(s), "
      << report.mismatches.size() << " mismatch(es)\n";
  return kFindings;
}

int cmd_perf(const Args& args, std::ostream& out) {
  if (args.positional.size() != 1) {
    throw std::runtime_error("perf: expected exactly one perf JSON file");
  }
  const std::uint64_t top = args.count("--top", 10);
  const JsonValue doc = parse_json(read_file(args.positional[0]));
  const JsonValue* prof = doc.find("prof");
  if (prof == nullptr || !prof->is_object()) {
    throw std::runtime_error("perf: no \"prof\" object in " +
                             args.positional[0]);
  }
  auto num = [&](const char* key) {
    const JsonValue* v = prof->find(key);
    return v != nullptr && v->is_number() ? v->number() : 0.0;
  };
  const double host_ns = num("host_ns");
  const double host_ms = host_ns / 1e6;
  const double sim_time = num("sim_time");
  const double sim_events = num("sim_events");
  const double events_per_sec = num("events_per_sec");

  out << "host time     " << Table::num(host_ms, 3) << " ms\n";
  out << "sim time      " << Table::num(sim_time, 3) << " units\n";
  out << "sim events    " << Table::num(sim_events, 0) << "\n";
  out << "events/sec    " << Table::num(events_per_sec, 0) << "\n";
  if (sim_time > 0.0) {
    // The Chrome export maps 1 cost-model unit to 1 ms, so this ratio reads
    // as "host milliseconds burned per simulated millisecond".
    out << "host/sim      " << Table::num(host_ms / sim_time, 4)
        << " host ms per sim unit\n";
  }

  // Top-N self time. self_ns never double-counts nested spans, so the
  // column sums to at most host_ns and ranks layers honestly.
  struct CatRow {
    std::string name;
    double count, total_ns, self_ns, min_ns, max_ns;
  };
  std::vector<CatRow> cats;
  if (const JsonValue* spans = prof->find("spans");
      spans != nullptr && spans->is_object()) {
    for (const auto& [name, b] : spans->object()) {
      if (!b.is_object()) continue;
      auto f = [&](const char* key) {
        const JsonValue* v = b.find(key);
        return v != nullptr && v->is_number() ? v->number() : 0.0;
      };
      cats.push_back({name, f("count"), f("total_ns"), f("self_ns"),
                      f("min_ns"), f("max_ns")});
    }
  }
  std::sort(cats.begin(), cats.end(), [](const CatRow& a, const CatRow& b) {
    return a.self_ns > b.self_ns;
  });
  double accounted_ns = 0.0;
  for (const CatRow& c : cats) accounted_ns += c.self_ns;
  if (!cats.empty()) {
    Table t({"category", "count", "self_ms", "total_ms", "self_%", "mean_ns",
             "max_ns"});
    for (std::size_t i = 0; i < cats.size() && i < top; ++i) {
      const CatRow& c = cats[i];
      t.row({c.name, Table::num(c.count, 0), Table::num(c.self_ns / 1e6, 3),
             Table::num(c.total_ns / 1e6, 3),
             Table::num(host_ns > 0 ? c.self_ns / host_ns * 100.0 : 0.0, 1),
             Table::num(c.count > 0 ? c.total_ns / c.count : 0.0, 0),
             Table::num(c.max_ns, 0)});
    }
    out << t.str();
    out << "spans account for "
        << Table::num(host_ns > 0 ? accounted_ns / host_ns * 100.0 : 0.0, 1)
        << "% of host time (rest is uninstrumented)\n";
  } else {
    out << "no span samples (profiler never armed?)\n";
  }

  // Allocation hotspots: totals, then phases ranked by bytes.
  const double alloc_count =
      prof->find("alloc") != nullptr && prof->find("alloc")->is_object()
          ? (prof->find("alloc")->find("count") != nullptr
                 ? prof->find("alloc")->find("count")->number()
                 : 0.0)
          : 0.0;
  const double alloc_bytes =
      prof->find("alloc") != nullptr && prof->find("alloc")->is_object()
          ? (prof->find("alloc")->find("bytes") != nullptr
                 ? prof->find("alloc")->find("bytes")->number()
                 : 0.0)
          : 0.0;
  out << "allocations   " << Table::num(alloc_count, 0) << " ("
      << Table::num(alloc_bytes, 0) << " bytes)\n";
  if (const JsonValue* phases = prof->find("phases");
      phases != nullptr && phases->is_array() && !phases->array().empty()) {
    struct PhaseRow {
      std::string name;
      double ms, alloc_count, alloc_bytes;
    };
    std::vector<PhaseRow> rows;
    for (const JsonValue& ph : phases->array()) {
      if (!ph.is_object()) continue;
      auto f = [&](const char* key) {
        const JsonValue* v = ph.find(key);
        return v != nullptr && v->is_number() ? v->number() : 0.0;
      };
      const JsonValue* name = ph.find("name");
      rows.push_back({name != nullptr && name->is_string() ? name->string()
                                                           : "(unnamed)",
                      (f("end_ns") - f("start_ns")) / 1e6, f("alloc_count"),
                      f("alloc_bytes")});
    }
    std::sort(rows.begin(), rows.end(),
              [](const PhaseRow& a, const PhaseRow& b) {
                return a.alloc_bytes > b.alloc_bytes;
              });
    Table t({"phase", "ms", "allocs", "bytes"});
    for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
      t.row({rows[i].name, Table::num(rows[i].ms, 3),
             Table::num(rows[i].alloc_count, 0),
             Table::num(rows[i].alloc_bytes, 0)});
    }
    out << t.str();
  }

  if (const std::string* path = args.flag("--json")) {
    std::ofstream o(*path, std::ios::binary);
    if (!o) throw std::runtime_error("cannot write " + *path);
    std::string line = "{\"bench\":\"perf\",\"host_ms\":";
    json_append_double(line, host_ms);
    line += ",\"events_per_sec\":";
    json_append_double(line, events_per_sec);
    line += ",\"sim_time\":";
    json_append_double(line, sim_time);
    line += ",\"sim_events\":";
    json_append_double(line, sim_events);
    line += ",\"alloc_count\":";
    json_append_double(line, alloc_count);
    line += ",\"alloc_bytes\":";
    json_append_double(line, alloc_bytes);
    for (const CatRow& c : cats) {
      line += ',';
      json_append_string(line, c.name + "_self_ns");
      line += ':';
      json_append_double(line, c.self_ns);
    }
    line += "}\n";
    o << line;
  }
  return kOk;
}

void usage(std::ostream& err) {
  err << "usage: wsn-inspect <command> [args]\n"
         "  (TRACE is a JSONL file, a wtr file, or a streamed segment dir;\n"
         "   analyses run single-pass with memory bounded by live flows:\n"
         "   a flow retires once idle for 1024 time units)\n"
         "  flows TRACE [--limit N]\n"
         "                                     reconstructed message flows\n"
         "  perf FILE [--top N] [--json PATH]  profiler snapshot: top self-\n"
         "                                     time, events/sec, host/sim\n"
         "                                     ratio, allocation hotspots\n"
         "  critical-path TRACE                slowest dependency chain\n"
         "  energy-map TRACE [--side N] [--top N] [--budget B]\n"
         "                                     per-node/per-level energy;\n"
         "                                     --budget adds a residual view\n"
         "  histogram TRACE [--buckets N]\n"
         "                                     latency/size distributions\n"
         "  check TRACE [--metrics FILE]\n"
         "                                     trace invariant checker\n"
         "                                     (incl. ARQ/fault reliability,\n"
         "                                     fd, depletion, and self-\n"
         "                                     stabilization invariants)\n"
         "  convert TRACE --out PATH [--format jsonl|wtr] [--segment-bytes N]\n"
         "                                     re-encode a capture (jsonl\n"
         "                                     round-trips byte-identically)\n"
         "  info TRACE                         header/segment/count summary\n"
         "  bench-compare --baseline FILE --current FILE [--tolerance 10%]\n"
         "                [--wallclock-tolerance P] [--bench ID]\n"
         "                                     bench regression gate; wall-\n"
         "                                     clock fields (_ms/_ns/_per_sec)\n"
         "                                     skipped unless P given (then\n"
         "                                     one-sided: slower only)\n";
}

}  // namespace

int run_inspect(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    usage(err);
    return args.empty() ? kUsage : kOk;
  }
  const std::string& cmd = args[0];
  try {
    if (cmd == "flows") {
      return cmd_flows(scan_args(args, 1, {"--limit"}), out);
    }
    if (cmd == "critical-path") {
      return cmd_critical_path(scan_args(args, 1, {}), out);
    }
    if (cmd == "energy-map") {
      return cmd_energy_map(
          scan_args(args, 1, {"--side", "--top", "--budget"}), out);
    }
    if (cmd == "histogram") {
      return cmd_histogram(scan_args(args, 1, {"--buckets"}), out);
    }
    if (cmd == "check") {
      return cmd_check(scan_args(args, 1, {"--metrics"}), out);
    }
    if (cmd == "convert") {
      return cmd_convert(
          scan_args(args, 1, {"--out", "--format", "--segment-bytes"}), out);
    }
    if (cmd == "info") {
      return cmd_info(scan_args(args, 1, {}), out);
    }
    if (cmd == "bench-compare") {
      return cmd_bench_compare(
          scan_args(args, 1,
                    {"--baseline", "--current", "--tolerance",
                     "--wallclock-tolerance", "--bench"}),
          out);
    }
    if (cmd == "perf") {
      return cmd_perf(scan_args(args, 1, {"--top", "--json"}), out);
    }
    err << "unknown command: " << cmd << "\n";
    usage(err);
    return kUsage;
  } catch (const std::exception& e) {
    err << "wsn-inspect " << cmd << ": " << e.what() << "\n";
    return kUsage;
  }
}

}  // namespace wsn::obs::analyze
