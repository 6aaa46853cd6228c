#include "core/primitives.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "obs/trace.h"

namespace wsn::core {
namespace {

/// Emits the 'B' span event of a collective and returns its flow id, or 0
/// when the collective category is disabled.
std::uint64_t collective_begin(MessageFabric& fabric, obs::EventName what,
                               const GridCoord& leader, std::size_t members) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Category::kCollective)) return 0;
  const std::uint64_t flow = fabric.simulator().next_flow();
  tr.emit({fabric.simulator().now(),
           static_cast<std::int64_t>(fabric.grid().index_of(leader)),
           obs::Category::kCollective, 'B', what, flow,
           {{"members", static_cast<std::uint64_t>(members)}}});
  return flow;
}

/// Emits the matching 'E' span event at completion.
void collective_end(MessageFabric& fabric, obs::EventName what,
                    const GridCoord& leader, std::uint64_t flow,
                    const CollectiveResult& result) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Category::kCollective)) return;
  tr.emit({fabric.simulator().now(),
           static_cast<std::int64_t>(fabric.grid().index_of(leader)),
           obs::Category::kCollective, 'E', what, flow,
           {{"value", result.value},
            {"messages", static_cast<std::uint64_t>(result.messages)}}});
}

double identity_of(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kCount:
      return 0.0;
    case ReduceOp::kMax:
      return -std::numeric_limits<double>::infinity();
    case ReduceOp::kMin:
      return std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

double fold(ReduceOp op, double acc, double v) {
  switch (op) {
    case ReduceOp::kSum: return acc + v;
    case ReduceOp::kMax: return std::max(acc, v);
    case ReduceOp::kMin: return std::min(acc, v);
    case ReduceOp::kCount: return acc + 1.0;
  }
  return acc;
}

// Shared mutable state for an in-flight collective; kept alive by the
// handler closures via shared_ptr.
struct ReduceState {
  double acc = 0.0;
  std::size_t outstanding = 0;
  std::uint32_t messages = 0;
};

}  // namespace

std::vector<GridCoord> PartialResult::missing() const {
  std::vector<GridCoord> out;
  for (const GridCoord& m : expected) {
    bool found = false;
    for (const GridCoord& c : contributors) found = found || c == m;
    if (!found) out.push_back(m);
  }
  return out;
}

void group_broadcast(MessageFabric& fabric, const GridCoord& leader,
                     std::span<const GridCoord> members, double value,
                     double message_units,
                     std::function<void(const CollectiveResult&)> done) {
  auto state = std::make_shared<ReduceState>();
  state->acc = value;
  const std::uint64_t flow =
      collective_begin(fabric, "broadcast", leader, members.size());
  for (const GridCoord& m : members) {
    if (!(m == leader)) ++state->outstanding;
  }
  auto finish = [&fabric, state, leader, flow, done = std::move(done)]() {
    const CollectiveResult result{state->acc, fabric.simulator().now(),
                                  state->messages};
    collective_end(fabric, "broadcast", leader, flow, result);
    done(result);
  };
  if (state->outstanding == 0) {
    fabric.simulator().post(finish);
    return;
  }
  for (const GridCoord& m : members) {
    if (m == leader) continue;
    fabric.set_receiver(m, [state, finish](const VirtualMessage&) {
      ++state->messages;
      if (--state->outstanding == 0) finish();
    });
    fabric.send(leader, m, value, message_units);
  }
}

void group_barrier(MessageFabric& fabric, std::span<const GridCoord> members,
                   const GridCoord& leader, double message_units,
                   std::function<void(const CollectiveResult&)> done) {
  // Phase 1: arrive (convergecast of empty signals).
  auto arrivals = std::make_shared<std::size_t>(0);
  auto releases = std::make_shared<std::size_t>(0);
  auto messages = std::make_shared<std::uint32_t>(0);
  std::size_t expected = 0;
  for (const GridCoord& m : members) {
    if (!(m == leader)) ++expected;
  }
  auto member_list =
      std::make_shared<std::vector<GridCoord>>(members.begin(), members.end());
  const std::uint64_t flow =
      collective_begin(fabric, "barrier", leader, members.size());

  auto finish = [&fabric, messages, leader, flow, done = std::move(done)]() {
    const CollectiveResult result{0.0, fabric.simulator().now(), *messages};
    collective_end(fabric, "barrier", leader, flow, result);
    done(result);
  };

  if (expected == 0) {
    fabric.simulator().post(finish);
    return;
  }

  auto release = [&fabric, leader, member_list, releases, messages, expected,
                  finish, message_units]() {
    // Phase 2: the leader releases every waiting member.
    for (const GridCoord& m : *member_list) {
      if (m == leader) continue;
      fabric.set_receiver(m, [releases, messages, expected,
                              finish](const VirtualMessage&) {
        ++*messages;
        if (++*releases == expected) finish();
      });
      fabric.send(leader, m, 0.0, message_units);
    }
  };

  fabric.set_receiver(leader, [arrivals, messages, expected,
                               release](const VirtualMessage&) {
    ++*messages;
    if (++*arrivals == expected) release();
  });

  for (const GridCoord& m : members) {
    if (!(m == leader)) fabric.send(m, leader, 0.0, message_units);
  }
}

// ---- Gathering collectives -----------------------------------------------

namespace {

/// Shared state of a gather. Contribution i corresponds to expected[i]; the
/// leader's own value counts as arrived immediately.
struct DeadlineState {
  std::vector<GridCoord> expected;
  std::vector<double> values;
  std::vector<bool> arrived;
  std::size_t outstanding = 0;
  std::uint32_t messages = 0;
  std::uint32_t stale_rejected = 0;
  bool closed = false;
  sim::EventId timer = 0;
  std::uint64_t flow = 0;
};

/// Payload of a contribution: tagging with the member index both makes
/// arrival order irrelevant and lets the leader attribute each arrival to a
/// contributor. `epoch` is the sender's binding epoch at send time; the
/// leader rejects contributions older than the fabric's current epoch for
/// that member (a deposed leader's in-flight value).
struct DeadlineTagged {
  std::size_t index;
  double value;
  std::uint64_t epoch = 0;
};

PartialResult make_partial(MessageFabric& fabric,
                           const std::shared_ptr<DeadlineState>& st,
                           bool deadline_hit, double value) {
  PartialResult r;
  r.value = value;
  r.expected = st->expected;
  for (std::size_t i = 0; i < st->expected.size(); ++i) {
    if (st->arrived[i]) r.contributors.push_back(st->expected[i]);
  }
  r.finished = fabric.simulator().now();
  r.messages = st->messages;
  r.deadline_hit = deadline_hit;
  r.stale_rejected = st->stale_rejected;
  return r;
}

/// Emits the 'E' span of a gathering collective, annotated with how partial
/// the close was.
void collective_end_partial(MessageFabric& fabric, obs::EventName what,
                            const GridCoord& leader, std::uint64_t flow,
                            const PartialResult& result) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Category::kCollective)) return;
  tr.emit({fabric.simulator().now(),
           static_cast<std::int64_t>(fabric.grid().index_of(leader)),
           obs::Category::kCollective, 'E', what, flow,
           {{"value", result.value},
            {"messages", static_cast<std::uint64_t>(result.messages)},
            {"contributors",
             static_cast<std::uint64_t>(result.contributors.size())},
            {"expected", static_cast<std::uint64_t>(result.expected.size())},
            {"partial",
             static_cast<std::uint64_t>(result.complete() ? 0 : 1)}}});
}

/// The engine under every reduce, sort and rank: tagged gather at the
/// leader, closed by whichever fires first — the last contribution or the
/// deadline timer (none for kNoDeadline). `then(state, deadline_hit)` runs
/// exactly once; late contributions afterwards only produce a kCollective
/// "late" trace event.
void deadline_gather(
    MessageFabric& fabric, std::span<const GridCoord> members,
    const GridCoord& leader, std::span<const double> values,
    double message_units, sim::Time deadline, obs::EventName what,
    std::function<void(std::shared_ptr<DeadlineState>, bool)> then) {
  if (members.size() != values.size()) {
    throw std::invalid_argument(
        "deadline collective: members/values size mismatch");
  }
  if (deadline < 0) {
    throw std::invalid_argument("deadline collective: negative deadline");
  }
  auto st = std::make_shared<DeadlineState>();
  st->expected.assign(members.begin(), members.end());
  st->values.assign(values.begin(), values.end());
  st->arrived.assign(members.size(), false);
  st->flow = collective_begin(fabric, what, leader, members.size());

  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == leader) {
      st->arrived[i] = true;  // the leader's own value folds in locally
    } else {
      ++st->outstanding;
    }
  }

  auto close = std::make_shared<std::function<void(bool)>>();
  *close = [&fabric, st, leader, then = std::move(then)](bool hit) {
    if (st->closed) return;
    st->closed = true;
    fabric.simulator().cancel(st->timer);
    // Tombstone receiver: contributions that beat the retry budget but not
    // the deadline are ignored, visibly.
    fabric.set_receiver(leader, [&fabric, st, leader](const VirtualMessage&) {
      auto& tr = obs::tracer();
      if (tr.enabled(obs::Category::kCollective)) {
        tr.emit({fabric.simulator().now(),
                 static_cast<std::int64_t>(fabric.grid().index_of(leader)),
                 obs::Category::kCollective, 'i', "late", st->flow, {}});
      }
    });
    then(st, hit);
  };

  if (st->outstanding > 0) {
    fabric.set_receiver(leader, [&fabric, st, leader,
                                 close](const VirtualMessage& msg) {
      if (st->closed) return;
      const auto tagged = std::any_cast<DeadlineTagged>(msg.payload);
      if (st->arrived[tagged.index]) return;  // duplicate contribution
      if (tagged.epoch < fabric.binding_epoch(st->expected[tagged.index])) {
        // A contribution stamped before this member's leadership moved:
        // the sender was deposed mid-flight. Folding it would double-count
        // the virtual node once the current binding contributes.
        ++st->stale_rejected;
        auto& tr = obs::tracer();
        if (tr.enabled(obs::Category::kCollective)) {
          tr.emit({fabric.simulator().now(),
                   static_cast<std::int64_t>(fabric.grid().index_of(leader)),
                   obs::Category::kCollective, 'i', "stale", st->flow,
                   {{"member", static_cast<std::uint64_t>(fabric.grid().index_of(
                                   st->expected[tagged.index]))},
                    {"epoch", tagged.epoch},
                    {"current",
                     fabric.binding_epoch(st->expected[tagged.index])}}});
        }
        return;
      }
      const sim::Time fold_lat = fabric.compute(leader, 1.0);
      st->arrived[tagged.index] = true;
      st->values[tagged.index] = tagged.value;
      ++st->messages;
      if (--st->outstanding == 0) {
        fabric.simulator().schedule_in(fold_lat,
                                       [close]() { (*close)(false); });
      }
    });
  }

  if (deadline != kNoDeadline) {
    st->timer = fabric.simulator().schedule_in(deadline,
                                               [close]() { (*close)(true); });
  }

  if (st->outstanding == 0) {
    fabric.simulator().post([close]() { (*close)(false); });
    return;
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == leader) continue;
    fabric.send(members[i], leader,
                DeadlineTagged{i, values[i], fabric.binding_epoch(members[i])},
                message_units);
  }
}

}  // namespace

void group_reduce_deadline(MessageFabric& fabric,
                           std::span<const GridCoord> members,
                           const GridCoord& leader,
                           std::span<const double> values, ReduceOp op,
                           double message_units, sim::Time deadline,
                           std::function<void(const PartialResult&)> done) {
  deadline_gather(
      fabric, members, leader, values, message_units, deadline, "reduce",
      [&fabric, leader, op,
       done = std::move(done)](std::shared_ptr<DeadlineState> st, bool hit) {
        double acc = identity_of(op);
        for (std::size_t i = 0; i < st->expected.size(); ++i) {
          if (st->arrived[i]) acc = fold(op, acc, st->values[i]);
        }
        const PartialResult r = make_partial(fabric, st, hit, acc);
        collective_end_partial(fabric, "reduce", leader, st->flow, r);
        done(r);
      });
}

void group_sort_deadline(
    MessageFabric& fabric, std::span<const GridCoord> members,
    const GridCoord& leader, std::span<const double> values,
    double message_units, sim::Time deadline,
    std::function<void(std::vector<double>, PartialResult)> done) {
  deadline_gather(
      fabric, members, leader, values, message_units, deadline, "sort",
      [&fabric, leader,
       done = std::move(done)](std::shared_ptr<DeadlineState> st, bool hit) {
        std::vector<double> present;
        for (std::size_t i = 0; i < st->expected.size(); ++i) {
          if (st->arrived[i]) present.push_back(st->values[i]);
        }
        const auto n = static_cast<double>(present.size());
        const double ops = n <= 1 ? 1.0 : n * std::log2(n);
        const sim::Time lat = fabric.compute(leader, ops);
        auto sorted = std::make_shared<std::vector<double>>(std::move(present));
        fabric.simulator().schedule_in(lat, [&fabric, leader, st, hit, sorted,
                                             done]() {
          std::ranges::sort(*sorted);
          const PartialResult r = make_partial(
              fabric, st, hit, static_cast<double>(sorted->size()));
          collective_end_partial(fabric, "sort", leader, st->flow, r);
          done(std::move(*sorted), r);
        });
      });
}

void group_rank_deadline(
    MessageFabric& fabric, std::span<const GridCoord> members,
    const GridCoord& leader, std::span<const double> values,
    double message_units, sim::Time deadline,
    std::function<void(std::vector<std::uint32_t>, PartialResult)> done) {
  deadline_gather(
      fabric, members, leader, values, message_units, deadline, "rank",
      [&fabric, leader,
       done = std::move(done)](std::shared_ptr<DeadlineState> st, bool hit) {
        // Contributor list in member order, with their values.
        auto present = std::make_shared<std::vector<std::size_t>>();
        for (std::size_t i = 0; i < st->expected.size(); ++i) {
          if (st->arrived[i]) present->push_back(i);
        }
        const auto n = static_cast<double>(present->size());
        const double ops = n <= 1 ? 1.0 : n * std::log2(n);
        const sim::Time lat = fabric.compute(leader, ops);
        fabric.simulator().schedule_in(lat, [&fabric, leader, st, hit,
                                             present, done]() {
          // Stable rank among contributors by (value, member order).
          std::vector<std::size_t> order(present->size());
          std::iota(order.begin(), order.end(), 0);
          std::ranges::stable_sort(order, [&](std::size_t a, std::size_t b) {
            return st->values[(*present)[a]] < st->values[(*present)[b]];
          });
          std::vector<std::uint32_t> ranks(present->size(), 0);
          for (std::size_t pos = 0; pos < order.size(); ++pos) {
            ranks[order[pos]] = static_cast<std::uint32_t>(pos);
          }
          const PartialResult r = make_partial(
              fabric, st, hit, static_cast<double>(present->size()));
          collective_end_partial(fabric, "rank", leader, st->flow, r);
          // Fire-and-forget scatter: a degraded round must not block on
          // members that may already be gone.
          for (std::size_t i = 0; i < present->size(); ++i) {
            const GridCoord& m = st->expected[(*present)[i]];
            if (m == leader) continue;
            fabric.send(leader, m, static_cast<double>(ranks[i]), 1.0);
          }
          done(std::move(ranks), r);
        });
      });
}

}  // namespace wsn::core
