// Time-ordered event queue for the discrete-event simulation kernel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace wsn::sim {

/// Simulation time. One unit corresponds to one "unit of latency" of the
/// paper's uniform cost model (the time to transmit B units of data or
/// complete R computations).
using Time = double;

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// 0 never names an event.
using EventId = std::uint64_t;

/// Timestamped callbacks, dispatched in time order with ties broken by
/// insertion order so that simulations are deterministic.
///
/// Entries sit in one of two sorted structures: the lane, a FIFO whose times
/// never decrease, or a binary heap. An event no earlier than the lane's tail
/// (a flood's deliveries: nearly every event of stack setup) enters and
/// leaves the lane in O(1) instead of by two heap sifts; pop() takes the
/// earlier front, exactly the order one heap would give.
///
/// Each queued entry owns a slot holding its callback and a generation that
/// is odd while the event is live. An EventId is (generation << 32) | slot,
/// so cancel() is O(1) and returns false, exactly, for an id that fired, was
/// cancelled, was never issued, or is 0. Slots are reused once their entry
/// leaves the queue, so nothing here grows with run length.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(Time at, Callback fn) {
    if (free_.empty()) {
      free_.push_back(static_cast<std::uint32_t>(slots_.size()));
      slots_.emplace_back();
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slots_[slot].fn = std::move(fn);
    const std::uint32_t gen = ++slots_[slot].gen;
    const Entry e{at, scheduled_++, slot};
    if (lane_.empty() || at >= lane_.back().at) {
      lane_.push_back(e);
    } else {
      heap_.push(e);
    }
    ++live_;
    peak_size_ = std::max(peak_size_, lane_.size() + heap_.size());
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// Marks the event as cancelled; it will be skipped when reached.
  /// Returns true if the event was live (issued, not yet fired or cancelled).
  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (gen % 2 == 0 || slot >= slots_.size() || slots_[slot].gen != gen) {
      return false;
    }
    ++slots_[slot].gen;
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }

  /// Live (scheduled, not yet fired or cancelled) events.
  std::size_t live() const { return live_; }

  /// Cancelled entries still queued, awaiting a lazy skip. Queue memory is
  /// live() + tombstones() entries; a high tombstone count means
  /// cancel-heavy traffic (ARQ timers) is bloating the kernel.
  std::size_t tombstones() const {
    return lane_.size() + heap_.size() - live_;
  }

  /// Events ever scheduled.
  std::uint64_t total_scheduled() const { return scheduled_; }

  /// High-water mark of the queue (live + tombstoned entries).
  std::size_t peak_size() const { return peak_size_; }

  /// Tombstoned entries lazily dropped while popping/peeking — the hidden
  /// per-pop overhead a calendar-queue rewrite must also beat.
  std::uint64_t cancelled_skips() const { return cancelled_skips_; }

  /// Time of the next live event. Requires !empty().
  Time next_time() {
    drop_cancelled();
    return front().at;
  }

  /// Pops and returns the next live event. Requires !empty().
  std::pair<Time, Callback> pop() {
    drop_cancelled();
    const Entry top = front();
    drop_front();
    --live_;
    ++slots_[top.slot].gen;  // fired: its id no longer cancels anything
    Callback fn = std::move(slots_[top.slot].fn);
    release(top.slot);
    return {top.at, std::move(fn)};
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;  // insertion order, the FIFO tie-break
    std::uint32_t slot;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };

  struct Slot {
    std::uint32_t gen = 0;
    Callback fn;
  };

  bool lane_first() const {
    return !lane_.empty() && (heap_.empty() || heap_.top() > lane_.front());
  }
  const Entry& front() const {
    return lane_first() ? lane_.front() : heap_.top();
  }
  void drop_front() { lane_first() ? lane_.pop_front() : heap_.pop(); }

  void drop_cancelled() {
    while (tombstones() > 0 && slots_[front().slot].gen % 2 == 0) {
      const std::uint32_t slot = front().slot;
      drop_front();
      slots_[slot].fn = nullptr;
      release(slot);
      ++cancelled_skips_;
    }
  }

  // A slot whose generation wrapped to 0 is retired instead of reused, so an
  // id never comes to name a later event (one slot per 2^31 events).
  void release(std::uint32_t slot) {
    if (slots_[slot].gen != 0) free_.push_back(slot);
  }

  std::deque<Entry> lane_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // slots whose entry has left the queue
  std::uint64_t scheduled_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t cancelled_skips_ = 0;
};

}  // namespace wsn::sim
