// E19 (robustness; Section 5 runtime hardening): the paper's emulation
// layer assumes the physical links deliver; real deployments drop packets.
// This bench quantifies what the ReliableChannel ARQ buys and what it
// costs: grid-wide deadline-bounded sums over the overlay, raw link vs
// ARQ, across packet-loss rates. Reported per cell: delivered fraction
// (contributors / expected), workload energy, mean round latency, and the
// ARQ's retransmit / give-up counts.
#include <cstdio>

#include "analysis/table.h"
#include "bench/bench_common.h"
#include "core/primitives.h"
#include "emulation/physical_stack.h"

namespace {

using namespace wsn;

constexpr std::size_t kSide = 8;
constexpr std::size_t kNodes = 200;
constexpr double kRange = 1.3;
constexpr int kRounds = 5;
constexpr double kDeadline = 250.0;

/// The bench needs a deployment where the fault-free overlay can route
/// every cell leader to the collector: some seeds place no node within
/// radio range across a cell boundary, which caps the delivered fraction
/// below 1 even at loss 0 and makes the "raw vs ARQ" comparison read as an
/// ARQ failure. Instead of hard-coding one lucky seed, walk the overlay's
/// own hop tables from every cell leader toward (0,0) and take the first
/// candidate whose chains all terminate at the collector; skipped seeds
/// are reported to stderr so a topology regression is visible, not silent.
/// Seed 1 is first so an unchanged routing layer keeps the committed
/// BENCH_BASELINE.json rows byte-identical.
std::uint64_t pick_routable_seed() {
  const core::GridCoord collector{0, 0};
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 5ULL, 8ULL}) {
    emulation::PhysicalStack stack(kSide, kNodes, kRange, seed);
    bool routable = stack.healthy();
    if (routable) {
      const net::NodeId sink = stack.overlay->bound_node(collector);
      for (const core::GridCoord& c : core::GridTopology(kSide).all_coords()) {
        net::NodeId at = stack.overlay->bound_node(c);
        // Leader-to-collector chains are at most a few hops per cell of
        // Manhattan distance; 4*side*side steps means a routing loop.
        std::size_t steps = 4 * kSide * kSide;
        while (at != sink && at != net::kNoNode && steps-- > 0) {
          at = stack.overlay->route_next_hop(at, collector);
        }
        if (at != sink) {
          routable = false;
          break;
        }
      }
    }
    if (routable) return seed;
    std::fprintf(stderr,
                 "bench_fault_recovery: seed %llu lacks a full set of "
                 "leader->collector routes, skipping\n",
                 static_cast<unsigned long long>(seed));
  }
  std::fprintf(stderr,
               "bench_fault_recovery: no routable seed among candidates\n");
  std::exit(1);
}

std::uint64_t routable_seed() {
  static const std::uint64_t seed = pick_routable_seed();
  return seed;
}

struct RunResult {
  double delivered_fraction;  // mean contributors/expected over rounds
  double energy;              // ledger total beyond setup
  double latency;             // mean round duration
  std::uint64_t retransmits;
  std::uint64_t give_ups;
};

RunResult run(double loss, bool arq) {
  emulation::PhysicalStack stack(kSide, kNodes, kRange, routable_seed());
  if (!stack.healthy()) {
    std::fprintf(stderr, "stack unhealthy at seed %llu\n",
                 static_cast<unsigned long long>(routable_seed()));
    std::exit(1);
  }
  if (arq) stack.enable_arq();
  stack.link->set_loss_probability(loss);

  std::vector<core::GridCoord> members;
  std::vector<double> values;
  for (const core::GridCoord& c : core::GridTopology(kSide).all_coords()) {
    members.push_back(c);
    values.push_back(1.0);
  }
  const core::GridCoord leader{0, 0};

  const double energy0 = stack.ledger->total();
  double fraction_sum = 0.0;
  double latency_sum = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    const sim::Time start = stack.sim.now();
    core::PartialResult result;
    core::group_reduce_deadline(*stack.overlay, members, leader, values,
                                core::ReduceOp::kSum, 1.0, kDeadline,
                                [&](const core::PartialResult& pr) {
                                  result = pr;
                                });
    stack.sim.run();
    fraction_sum += static_cast<double>(result.contributors.size()) /
                    static_cast<double>(result.expected.size());
    latency_sum += result.finished - start;
  }

  RunResult out;
  out.delivered_fraction = fraction_sum / kRounds;
  out.energy = stack.ledger->total() - energy0;
  out.latency = latency_sum / kRounds;
  out.retransmits = arq ? stack.arq->counters().get("arq.retransmit") : 0;
  out.give_ups = arq ? stack.arq->counters().get("arq.give_up") : 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header(
      "E19 / robustness", "ARQ cost and benefit under packet loss",
      "per-hop ack/retransmit recovers grid-wide collectives that raw "
      "links lose; the overhead is bounded ack traffic");
  bench::JsonWriter json(bench::json_path_from_args(argc, argv));

  analysis::Table table({"loss", "mode", "delivered", "energy", "latency",
                         "retransmits", "give_ups"});
  for (double loss : {0.0, 0.01, 0.05, 0.2}) {
    for (bool arq : {false, true}) {
      const RunResult r = run(loss, arq);
      const char* mode = arq ? "arq" : "raw";
      table.row({analysis::Table::num(loss, 2), mode,
                 analysis::Table::num(r.delivered_fraction, 3),
                 analysis::Table::num(r.energy, 1),
                 analysis::Table::num(r.latency, 1),
                 analysis::Table::num(r.retransmits),
                 analysis::Table::num(r.give_ups)});
      json.row("fault_recovery",
               {{"loss", loss},
                {"mode", mode},
                {"delivered_fraction", r.delivered_fraction},
                {"energy", r.energy},
                {"latency", r.latency},
                {"retransmits", r.retransmits},
                {"give_ups", r.give_ups}});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Check: at loss 0 the modes tie except for ack energy; as loss grows\n"
      "the raw overlay's delivered fraction collapses (one drop kills a\n"
      "whole member-to-leader path) while ARQ holds near 1.0, paying for it\n"
      "in retransmissions and ack airtime. Give-ups stay rare until loss\n"
      "approaches the retry budget's breaking point.\n");
  return 0;
}
