#include "obs/analyze/flows.h"

namespace wsn::obs::analyze {

CriticalPathReport critical_path(const std::vector<Flow>& flows) {
  std::vector<const Flow*> pool;
  pool.reserve(flows.size());
  for (const Flow& f : flows) {
    if (f.delivered) pool.push_back(&f);
  }
  CriticalPathReport report;
  const Flow* last = nullptr;
  for (const Flow* f : pool) {
    if (last == nullptr || f->deliver_time > last->deliver_time) last = f;
  }
  if (last == nullptr) return report;

  // Backward walk: the predecessor of a flow is the pool flow that last
  // delivered to its source node no later than it was sent. Delivery times
  // strictly decrease along the walk, so it terminates; the size cap is a
  // belt-and-braces guard against degenerate traces.
  std::vector<const Flow*> reversed{last};
  const Flow* cur = last;
  while (reversed.size() <= pool.size()) {
    const Flow* pred = nullptr;
    for (const Flow* g : pool) {
      if (g == cur || g->dst_node != cur->src_node) continue;
      if (g->deliver_time > cur->send_time) continue;
      if (pred == nullptr || g->deliver_time > pred->deliver_time) pred = g;
    }
    if (pred == nullptr) break;
    reversed.push_back(pred);
    cur = pred;
  }

  report.chain.reserve(reversed.size());
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    ChainLink link;
    link.flow = *it;
    if (!report.chain.empty()) {
      link.gap_before = link.flow->send_time -
                        report.chain.back().flow->deliver_time;
    }
    report.chain.push_back(link);
  }
  report.start_time = report.chain.front().flow->send_time;
  report.end_time = report.chain.back().flow->deliver_time;
  for (const ChainLink& link : report.chain) {
    const Flow& f = *link.flow;
    report.message_wait += f.wait;
    report.message_transmit += f.hops == 0 ? f.latency() : f.transmit;
    report.node_gaps += link.gap_before;
  }
  return report;
}

}  // namespace wsn::obs::analyze
