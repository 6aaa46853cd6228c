// Discrete-event kernel: RNG determinism, event ordering, cancellation,
// clock semantics, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/primitives.h"
#include "core/virtual_network.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/fault_plan.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace wsn::sim {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= a2() != c();
  EXPECT_TRUE(differs);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng r(0);
  bool nonzero = false;
  for (int i = 0; i < 10; ++i) nonzero |= r() != 0;
  EXPECT_TRUE(nonzero);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    const double w = r.uniform(3.0, 5.0);
    EXPECT_GE(w, 3.0);
    EXPECT_LT(w, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, BetweenCoversBothEndpoints) {
  Rng r(13);
  bool lo = false;
  bool hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= v == -2;
    hi |= v == 2;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(17);
  Summary s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(5);
  Rng child = parent.split();
  // Child stream should differ from the parent's continuation.
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= parent() != child();
  EXPECT_TRUE(differs);
}

TEST(EventQueue, FifoTieBreaking) {
  // Events are numbered in schedule order; ties fire in that order. In the
  // second case a 2.0 is scheduled between the two 1.0 events.
  const std::vector<std::pair<std::vector<Time>, std::vector<int>>> cases = {
      {{1.0, 1.0, 0.5}, {3, 1, 2}},
      {{1.0, 2.0, 1.0}, {1, 3, 2}},
  };
  for (const auto& [times, want] : cases) {
    EventQueue q;
    std::vector<int> order;
    for (std::size_t i = 0; i < times.size(); ++i) {
      q.schedule(times[i], [&order, i] {
        order.push_back(static_cast<int>(i) + 1);
      });
    }
    while (!q.empty()) q.dispatch();
    EXPECT_EQ(order, want);
  }
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  const EventId b = q.schedule(2.0, [&] { fired += 10; });
  q.schedule(3.0, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.live(), 2u);
  while (!q.empty()) q.dispatch();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, OversizedCallableRunsOnceAndIsDestroyedOnce) {
  // Larger than the in-place buffer, so the callback boxes it.
  struct Big {
    int* runs;
    int* destroyed;
    std::array<char, 2 * Callback::kInlineSize> ballast{};
    bool owner = true;  // false once moved from
    Big(int* r, int* d) : runs(r), destroyed(d) {}
    Big(Big&& o) noexcept
        : runs(o.runs), destroyed(o.destroyed), ballast(o.ballast) {
      o.owner = false;
    }
    ~Big() {
      if (owner) ++*destroyed;
    }
    void operator()() { ++*runs; }
  };
  int runs = 0;
  int destroyed = 0;
  {
    EventQueue q;
    q.schedule(1.0, Big(&runs, &destroyed));
    q.schedule(2.0, [] {});
    EXPECT_EQ(destroyed, 0);
    EXPECT_EQ(q.dispatch(), 1.0);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 1);  // destroyed in its slot once it has run
  }
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(EventQueue, CancelledCaptureIsReleasedWhenItsTombstoneIsSkipped) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  const EventId id = q.schedule(1.0, [token] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  q.dispatch();  // skips the cancelled 1.0 event, runs the 2.0 one
  EXPECT_EQ(q.cancelled_skips(), 1u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, DestroyingANonEmptyQueueReleasesEveryCapture) {
  using Ballast = std::array<char, 2 * Callback::kInlineSize>;
  auto token = std::make_shared<int>(0);
  {
    EventQueue q;
    q.schedule(1.0, [token] {});                           // lane, in place
    const EventId id = q.schedule(2.0, [token] {});        // lane, cancelled
    q.schedule(0.5, [token, b = Ballast{}] { (void)b; });  // lane, boxed
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// The kernel's contract, checked against a reference: the entries pending
// at each dispatch, kept sorted by (time, insertion order). Times compare as
// doubles, so -0.0 ties with 0.0.
struct Pending {
  Time at;
  std::uint64_t seq;
  bool operator<(const Pending& o) const {
    return at < o.at || (at == o.at && seq < o.seq);
  }
};

TEST(EventQueue, DispatchOrderMatchesAReferenceSort) {
  // Seeded random mixes of schedules (ties, 0 and -0.0, times before the
  // last dispatch), posts at the last dispatched time, cancels of live,
  // fired, cancelled and never-issued ids, and dispatches.
  // The relative schedules use more distinct delays than there are lanes,
  // so lanes are claimed, drained, released and contended within one seed,
  // and the rest park in the wheel: a delay inside one bucket (0.01), and
  // times past its 16-unit horizon (17, 40) or far beyond it (1e6) that go
  // to the heap.
  constexpr Time kTimes[] = {0.0, -0.0, 0.01, 0.25, 0.5, 1.0, 1.0,
                             1.5, 2.5,  3.0,  4.0,  17.0, 40.0, 1e6};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::set<Pending> reference;
    std::vector<EventId> ids;  // by insertion order
    std::vector<Time> times;
    std::vector<std::uint64_t> fired;
    std::uint64_t dispatched = 0;
    Time now = 0.0;
    const auto schedule = [&](Time at) {
      const std::uint64_t seq = ids.size();
      ids.push_back(q.schedule(at, [&fired, seq] { fired.push_back(seq); }));
      times.push_back(at);
      reference.insert({at, seq});
    };
    const auto dispatch_one = [&] {
      const Pending want = *reference.begin();
      reference.erase(reference.begin());
      ASSERT_FALSE(q.empty());
      now = q.dispatch();
      ++dispatched;
      EXPECT_EQ(now, want.at);
      ASSERT_EQ(fired.size(), dispatched);
      EXPECT_EQ(fired.back(), want.seq);
    };
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t r = rng.below(100);
      const Time time = kTimes[rng.below(std::size(kTimes))];
      if (r < 15) {
        schedule(time);  // absolute: may lie before `now`
      } else if (r < 40) {
        schedule(now + time);
      } else if (r < 55) {
        schedule(now);  // a post
      } else if (r < 68 && !ids.empty()) {
        const std::uint64_t seq = rng.below(ids.size());
        const bool live = reference.erase({times[seq], seq}) == 1;
        EXPECT_EQ(q.cancel(ids[seq]), live);
      } else if (r < 72) {
        // Never issued: 0, a slot past every chunk, and a generation that
        // no slot reaches before 2^31 reuses.
        EXPECT_FALSE(q.cancel(0));
        EXPECT_FALSE(q.cancel((EventId{1} << 32) | 0xFFFFFFu));
        EXPECT_FALSE(q.cancel((EventId{0xFFFFFFFFu} << 32) | rng.below(64)));
      } else if (!reference.empty()) {
        dispatch_one();
      }
      ASSERT_EQ(q.live(), reference.size());
    }
    while (!reference.empty()) dispatch_one();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired.size(), dispatched);
  }
}

TEST(EventQueue, RunPhaseMixMatchesAReferenceSort) {
  // The run phase's schedule shape: a delivery stream at delay 0.25 whose
  // every send arms a far, jittered timer, cancelled by its delivery about
  // 98% of the time; posts; a second stream at delay 1; delays that round
  // (now + d - now != d); and absolute times before the last dispatch.
  // Each stream keeps the lane of its delay while it flows; a timer's delay
  // never repeats, so the timers park in the wheel or claim a lane that no
  // stream holds.
  constexpr Time kRoundingDelays[] = {0.1, 0.3, 0.7};
  constexpr std::uint64_t kNoTimer = ~std::uint64_t{0};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::set<Pending> reference;
    std::vector<EventId> ids;  // by insertion order
    std::vector<Time> times;
    std::vector<std::uint64_t> timer_of;  // a delivery's timer
    std::vector<std::uint64_t> fired;
    std::uint64_t rounded = 0;
    Time now = 0.0;
    const auto schedule = [&](Time at) {
      const std::uint64_t seq = ids.size();
      ids.push_back(q.schedule(at, [&fired, seq] { fired.push_back(seq); }));
      times.push_back(at);
      timer_of.push_back(kNoTimer);
      reference.insert({at, seq});
      return seq;
    };
    const auto dispatch_one = [&] {
      const Pending want = *reference.begin();
      reference.erase(reference.begin());
      ASSERT_FALSE(q.empty());
      now = q.dispatch();
      EXPECT_EQ(now, want.at);
      ASSERT_FALSE(fired.empty());
      ASSERT_EQ(fired.back(), want.seq);
      const std::uint64_t timer = timer_of[want.seq];
      if (timer != kNoTimer && rng.chance(0.98)) {
        const bool live = reference.erase({times[timer], timer}) == 1;
        EXPECT_EQ(q.cancel(ids[timer]), live);
      }
    };
    // About 64 events in flight, as many senders would keep.
    for (int op = 0; op < 20000; ++op) {
      if (reference.size() >= 48 + rng.below(32)) {
        dispatch_one();
        continue;
      }
      const std::uint64_t r = rng.below(100);
      if (r < 75) {
        const std::uint64_t delivery = schedule(now + 0.25);
        timer_of[delivery] =
            schedule(now + 1.5 * (1.0 + rng.uniform(0.0, 0.25)));
      } else if (r < 85) {
        schedule(now + 1.0);
      } else if (r < 92) {
        schedule(now);  // a post
      } else if (r < 96) {
        const Time d = kRoundingDelays[rng.below(std::size(kRoundingDelays))];
        rounded += (now + d) - now != d;
        schedule(now + d);
      } else {
        schedule(rng.uniform(0.0, now));  // absolute: before `now`
      }
      ASSERT_EQ(q.live(), reference.size());
    }
    while (!reference.empty()) dispatch_one();
    EXPECT_TRUE(q.empty());
    EXPECT_GT(rounded, 0u);
    // The timers park in the wheel, and so do the keys no stream carries;
    // the streams leave through lanes. The heap serves only keys in the
    // bucket being served and keys whose ring slot holds another bucket,
    // as when an absolute time before the last dispatch takes the clock
    // back.
    EXPECT_LT(q.heap_pops(), ids.size() / 20) << "seed " << seed;
  }
}

TEST(EventQueue, DeepFloodThroughLaneAndHeapMatchesAReferenceSort) {
  // A setup-sized flood queued at once: most times never decrease, every
  // seventh lies earlier, every thirteenth lies in the one wheel bucket
  // [1, 1.0625) (thousands of keys, sorted across blocks when it opens),
  // times tie in runs of 64, and every eleventh entry is cancelled. The
  // clock stays at 0 while the flood queues, so each distinct time is a
  // delay of its own: the first four claim the lanes, later times inside
  // the wheel's 16-unit horizon park, and the rest, the rising keys past
  // the horizon among them, go to the heap.
  constexpr std::uint64_t kFlood = 120'000;
  Rng rng(3);
  EventQueue q;
  std::vector<Pending> want;
  std::vector<std::uint64_t> fired;
  fired.reserve(kFlood);
  std::uint64_t cancelled = 0;
  for (std::uint64_t i = 0; i < kFlood; ++i) {
    const auto tail = static_cast<double>(i / 64);
    const Time at = i % 7 == 6    ? std::floor(rng.uniform(0.0, tail + 1))
                    : i % 13 == 12 ? 1.0 + rng.uniform(0.0, 0.0625)
                                   : tail;
    const EventId id = q.schedule(at, [&fired, i] { fired.push_back(i); });
    if (i % 11 == 10) {
      ASSERT_TRUE(q.cancel(id));
      ++cancelled;
    } else {
      want.push_back({at, i});
    }
  }
  EXPECT_EQ(q.peak_size(), kFlood);
  std::sort(want.begin(), want.end());
  while (!q.empty()) q.dispatch();
  ASSERT_EQ(fired.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(fired[k], want[k].seq) << "dispatch " << k;
  }
  EXPECT_EQ(q.cancelled_skips() + q.tombstones(), cancelled);
}

TEST(Simulator, CallbackAddingASlotChunkAndCancellingItselfKeepsOrder) {
  // The first chunk is nearly full when the callback runs, so the events it
  // schedules add slot chunks while it runs in its own slot. Its id has
  // fired, so cancelling it returns false, and its in-place captures
  // survive the growth.
  struct Context {
    Simulator sim;
    EventId self = 0;
    bool cancelled = true;
    bool captures_intact = false;
    std::vector<int> order;
  } ctx;
  for (int i = 0; i < 500; ++i) ctx.sim.schedule_in(3.0, [] {});
  const auto token = std::make_shared<int>(0);
  ctx.self = ctx.sim.schedule_in(1.0, [c = &ctx, token] {
    for (int i = 0; i < 600; ++i) {
      c->sim.schedule_in(1.0 + i % 3, [c, i] { c->order.push_back(i); });
    }
    c->cancelled = c->sim.cancel(c->self);
    c->captures_intact = token.use_count() == 2;
  });
  ctx.sim.run();

  std::vector<int> want;
  for (int t = 0; t < 3; ++t) {
    for (int i = t; i < 600; i += 3) want.push_back(i);
  }
  EXPECT_FALSE(ctx.cancelled);
  EXPECT_TRUE(ctx.captures_intact);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(ctx.order, want);
  EXPECT_EQ(ctx.sim.events_processed(), 1101u);
}

TEST(Simulator, ThrowingCallbackReleasesItsSlot) {
  Simulator sim;
  const auto token = std::make_shared<int>(0);
  const EventId id =
      sim.schedule_in(1.0, [token] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);  // its closure is destroyed
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.queue().tombstones(), 0u);
  bool ran = false;
  sim.post([&ran] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 1.0);
}

TEST(Simulator, NonFiniteTimeIsRejected) {
  // NaN compares false with every time, so the past-time check alone would
  // let it through to run before earlier events and set now() to NaN.
  Simulator sim;
  bool fired = false;
  sim.schedule_in(1.0, [&fired] { fired = true; });
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  const Time inf = std::numeric_limits<Time>::infinity();
  for (const Time t : {nan, inf, -inf}) {
    EXPECT_THROW(sim.schedule_at(t, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_in(t, [] {}), std::invalid_argument);
  }
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 1.0);
  // An infinite bound leaves the clock at the last event; NaN is refused.
  sim.run_until(inf);
  EXPECT_EQ(sim.now(), 1.0);
  EXPECT_THROW(sim.run_until(nan), std::invalid_argument);
}

TEST(Simulator, RunUntilInfinityKeepsTheClockUsable) {
  // run_until(inf) means "run to the end": every event runs, as in run(),
  // and the clock stays on the last one, so posts and timers still work.
  Simulator sim;
  std::vector<Time> fired;
  sim.schedule_in(2.0, [&] { fired.push_back(sim.now()); });
  sim.schedule_in(5.0, [&] { fired.push_back(sim.now()); });
  sim.run_until(std::numeric_limits<Time>::infinity());
  EXPECT_EQ(fired, (std::vector<Time>{2.0, 5.0}));
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 0u);
  sim.post([&] { fired.push_back(sim.now()); });
  sim.schedule_in(1.0, [&] { fired.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<Time>{2.0, 5.0, 5.0, 6.0}));
  // A finite bound still moves the clock to it.
  sim.run_until(10.0);
  EXPECT_EQ(sim.now(), 10.0);
}

TEST(Simulator, SecondBurstOfPostsAllocatesNothing) {
  // A drained lane returns its blocks to the queue's pool, and the next
  // lane reuses them, so a burst into a drained simulator needs no new
  // storage. Each burst is one stream at delay 0, so it leaves through a
  // lane.
  for (const int burst : {64, 1000}) {
    Simulator sim;
    for (int i = 0; i < burst; ++i) sim.post([] {});
    sim.run();
    const std::uint64_t before = obs::global_alloc_stats().count;
    for (int i = 0; i < burst; ++i) sim.post([] {});
    EXPECT_EQ(obs::global_alloc_stats().count - before, 0u) << burst;
    sim.run();
    EXPECT_EQ(sim.events_processed(), 2u * burst);
    EXPECT_EQ(sim.queue().heap_pops(), 0u) << burst;
    EXPECT_EQ(sim.queue().wheel_pops(), 0u) << burst;
  }
}

TEST(Simulator, SecondBurstOfJitteredTimersAllocatesNothing) {
  // ARQ-shaped timers: each send queues a delivery 0.25 ahead and arms a
  // timer 1.5-1.875 ahead, which the delivery cancels 98% of the time. The
  // timers park in the wheel's buckets, whose blocks go back to the pool
  // as each bucket opens. A warm-up burst from twice as many senders grows
  // the pool past the depth a burst's draws can reach, so the second burst
  // allocates nothing.
  constexpr int kSends = 200;
  struct Sender {
    Simulator& sim;
    EventId timer = 0;
    int sends = 0;
    void send() {
      if (++sends > kSends) return;
      sim.schedule_in(0.25, [this] { deliver(); });
      timer = sim.schedule_in(1.5 * (1.0 + sim.rng().uniform(0.0, 0.25)),
                              [this] { send(); });
    }
    void deliver() {
      if (!sim.rng().chance(0.98)) return;  // lost: the timer resends
      sim.cancel(timer);
      send();
    }
  };
  Simulator sim(5);
  std::vector<Sender> senders(128, Sender{sim});
  const auto burst = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Sender& s = senders[i];
      s.sends = 0;
      sim.schedule_in(sim.rng().uniform(0.0, 0.25), [&s] { s.send(); });
    }
    sim.run();
  };
  burst(senders.size());
  const std::uint64_t parked = sim.queue().wheel_pops();
  const std::uint64_t before = obs::global_alloc_stats().count;
  burst(senders.size() / 2);
  EXPECT_EQ(obs::global_alloc_stats().count - before, 0u);
  // The timers left through the wheel, or through a delay lane one of them
  // claimed; none through the heap.
  EXPECT_GT(sim.queue().wheel_pops() - parked, 64u * kSends * 3 / 4);
  EXPECT_EQ(sim.queue().heap_pops(), 0u);
}

TEST(Simulator, EachSimulatorHandsOutItsOwnFlowIds) {
  Simulator a(1);
  Simulator b(2);
  EXPECT_EQ(a.next_flow(), 1u);
  EXPECT_EQ(a.next_flow(), 2u);
  EXPECT_EQ(b.next_flow(), 1u);
  EXPECT_EQ(a.next_flow(), 3u);
  EXPECT_EQ(b.next_flow(), 2u);

  // A traced send takes its id from the simulator it runs on, so a second
  // simulator's first send is flow 1 again.
  obs::RingBufferSink sink(16);
  obs::ScopedTrace scope(sink);
  for (std::uint64_t seed : {3u, 4u}) {
    Simulator sim(seed);
    core::VirtualNetwork vnet(sim, core::GridTopology(2), core::CostModel{});
    vnet.send({0, 0}, {0, 1}, 0, 1.0);
    vnet.send({0, 0}, {1, 1}, 0, 1.0);
  }
  std::vector<std::uint64_t> send_flows;
  for (const obs::TraceEvent& ev : sink.events()) {
    if (ev.name == "send") send_flows.push_back(ev.flow);
  }
  EXPECT_EQ(send_flows, (std::vector<std::uint64_t>{1, 2, 1, 2}));
}

TEST(Simulator, CallbackGrowingTheSlotStorageCompletes) {
  // One dispatch schedules thousands of events, so the slot storage grows
  // under the running callback; its own captures must stay intact, and the
  // new events still fire in (time, schedule order).
  constexpr int kFanOut = 5000;
  constexpr int kTimes = 7;
  Simulator sim;
  std::vector<int> order;
  bool captures_intact = false;
  const auto token = std::make_shared<int>(0);
  sim.schedule_in(1.0, [&, token, label = std::string("fan-out")] {
    for (int i = 0; i < kFanOut; ++i) {
      sim.schedule_in(1.0 + i % kTimes, [&order, i] { order.push_back(i); });
    }
    captures_intact = label == "fan-out" && token.use_count() == 2;
  });
  sim.run();

  std::vector<int> want;
  for (int t = 0; t < kTimes; ++t) {
    for (int i = t; i < kFanOut; i += kTimes) want.push_back(i);
  }
  EXPECT_TRUE(captures_intact);
  EXPECT_EQ(order, want);
  EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(kFanOut) + 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, ClockAdvancesMonotonically) {
  Simulator sim;
  std::vector<Time> times;
  sim.schedule_in(2.0, [&] { times.push_back(sim.now()); });
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(0.5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{1.0, 1.5, 2.0}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, CallbackCancellingItsOwnIdIsANoOp) {
  // deadline_gather's close() cancels its deadline timer from inside that
  // timer's callback. The id has fired, so cancel() returns false and leaves
  // the follow-up event alone.
  Simulator sim;
  EventId self = 0;
  bool cancelled = true;
  bool follow_up = false;
  self = sim.schedule_in(1.0, [&] {
    sim.schedule_in(1.0, [&] { follow_up = true; });
    cancelled = sim.cancel(self);
  });
  sim.run();
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(follow_up);
  EXPECT_EQ(sim.queue().tombstones(), 0u);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulator, PostRunsAtCurrentTime) {
  Simulator sim;
  sim.schedule_in(5.0, [&] {
    sim.post([&] { EXPECT_EQ(sim.now(), 5.0); });
  });
  sim.run();
  EXPECT_EQ(sim.now(), 5.0);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_in(1.0, [&] {
    EXPECT_THROW(sim.schedule_at(0.5, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(2.0, [&] { ++fired; });
  sim.schedule_in(3.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 1u);
  // The simulator reads the queue's one clock and dispatch count.
  EXPECT_EQ(sim.queue().now(), sim.now());
  EXPECT_EQ(sim.queue().dispatched(), sim.events_processed());
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.queue().now(), sim.now());
  EXPECT_EQ(sim.queue().dispatched(), sim.events_processed());
}

TEST(Simulator, EventBudgetGuardsRunaway) {
  Simulator sim;
  std::function<void()> loop = [&] { sim.post(loop); };
  sim.post(loop);
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

enum class TestCounter : std::uint8_t { kA, kB, kC, kCount };
constexpr std::string_view kTestCounterNames[] = {"a", "b", "c"};
static_assert(counter_table_ok<TestCounter>(kTestCounterNames));

TEST(Trace, CountersAccumulate) {
  CounterSet counters(kTestCounterNames);
  counters.add(TestCounter::kA);
  counters.add(TestCounter::kA, 4);
  counters.add(TestCounter::kB);
  EXPECT_EQ(counters.get("a"), 5u);
  EXPECT_EQ(counters.get("b"), 1u);
  EXPECT_EQ(counters.get("c"), 0u);
  EXPECT_EQ(counters.get("missing"), 0u);

  // A table must name every counter once, in name order.
  constexpr std::string_view unsorted[] = {"b", "a", "c"};
  constexpr std::string_view repeated[] = {"a", "a", "c"};
  constexpr std::string_view short_table[] = {"a", "b"};
  static_assert(!counter_table_ok<TestCounter>(unsorted));
  static_assert(!counter_table_ok<TestCounter>(repeated));
  static_assert(!counter_table_ok<TestCounter>(short_table));
}

TEST(Trace, SummaryStatistics) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Trace, EmptySummaryIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.cv(), 0.0);
}

// Two arms of the same fault plan on identically seeded simulators must
// produce byte-identical traces — the contract that makes fault campaigns
// replayable (ROADMAP: "inject the same fault schedule across two runs").
TEST(FaultCampaignDeterminism, SameSeedAndPlanReplayIdentically) {
  auto capture = [](std::uint64_t seed) {
    obs::RingBufferSink sink(1u << 16);
    Simulator sim(seed);
    core::VirtualNetwork vnet(sim, core::GridTopology(4), core::CostModel{});
    obs::ScopedTrace scope(sink);
    FaultInjector injector(sim, vnet);
    injector.arm(FaultPlan::from_json(R"({"events": [
      {"at": 2.0, "kind": "crash", "node": 5},
      {"at": 4.0, "kind": "crash", "node": 9},
      {"at": 8.0, "kind": "recover", "node": 5}
    ]})"));
    std::vector<core::GridCoord> members;
    std::vector<double> values;
    for (const core::GridCoord& c : core::GridTopology(4).all_coords()) {
      members.push_back(c);
      values.push_back(1.0);
    }
    core::group_reduce_deadline(vnet, members, {0, 0}, values,
                                core::ReduceOp::kSum, 1.0, 30.0,
                                [](const core::PartialResult&) {});
    sim.run();
    std::ostringstream out;
    obs::write_jsonl(sink.events(), out);
    return out.str();
  };
  const std::string a = capture(7);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("fault.crash"), std::string::npos);
  // (No cross-seed assertion: the virtual layer consumes no randomness, so
  // differently seeded runs are legitimately identical too.)
  EXPECT_EQ(a, capture(7));
}

TEST(Trace, LinearFitRecoversLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.5 * i);
  }
  const LinearFit f = fit_line(xs, ys);
  EXPECT_NEAR(f.slope, 2.5, 1e-9);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

}  // namespace
}  // namespace wsn::sim
