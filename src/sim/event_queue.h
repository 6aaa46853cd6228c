// Time-ordered event queue for the discrete-event simulation kernel.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
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

/// A move-only void() callable: an ops-table pointer and a pointer-aligned
/// buffer. A callable that fits the buffer and is nothrow-movable is stored
/// in place; any other is boxed on the heap.
class Callback {
 public:
  static constexpr std::size_t kInlineSize = 48;

  Callback() = default;

  /// Implicit, so callers keep passing lambdas.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Callback(F&& f) : ops_(&kOps<Fn>) {
    if constexpr (kInPlace<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  ~Callback() { reset(); }

  /// Runs the callable. Requires a non-empty Callback.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* dst, void* src) noexcept;  // move, destroy src
    void (*destroy)(void* buf) noexcept;
  };

  template <typename Fn>
  static constexpr bool kInPlace = sizeof(Fn) <= kInlineSize &&
                                   alignof(Fn) <= alignof(void*) &&
                                   std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static Fn& target(void* buf) {
    if constexpr (kInPlace<Fn>) {
      return *std::launder(static_cast<Fn*>(buf));
    } else {
      return **std::launder(static_cast<Fn**>(buf));
    }
  }
  template <typename Fn>
  static void invoke(void* buf) {
    target<Fn>(buf)();
  }
  template <typename Fn>
  static void relocate(void* dst, void* src) noexcept {
    if constexpr (kInPlace<Fn>) {
      ::new (dst) Fn(std::move(target<Fn>(src)));
      target<Fn>(src).~Fn();
    } else {
      ::new (dst) Fn*(&target<Fn>(src));
    }
  }
  template <typename Fn>
  static void destroy(void* buf) noexcept {
    if constexpr (kInPlace<Fn>) {
      target<Fn>(buf).~Fn();
    } else {
      delete &target<Fn>(buf);
    }
  }
  template <typename Fn>
  static constexpr Ops kOps{&invoke<Fn>, &relocate<Fn>, &destroy<Fn>};

  void take(Callback& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineSize];
};

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
///
/// A slot stores its callback in place, so scheduling a closure that fits
/// allocates nothing once the queue has grown to its working depth.
/// Callback's 48-byte buffer is sized to the hottest closures: the link's
/// delivery (the sender and receiver, a std::any payload, size and flow);
/// the ARQ's retransmit timer and the failure detector's timers fit too.
/// With the generation, a slot is then exactly 64 bytes.
/// Slots live in fixed 512-slot chunks, so growth never relocates or copies
/// a live slot: a stack's setup floods queue ~81k deliveries at once, and a
/// vector of slots doubling to 128K entries would leave its old buffers as
/// peak-RSS growth on every stack built afterwards. (A std::deque never
/// relocates either, but its 8-slot blocks make the block table 64x larger
/// and slow deep-queue dispatch; see EXPERIMENTS.md E22.)
class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Schedules `fn` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(Time at, Callback fn) {
    if (free_.empty()) {
      if (slot_count_ % kChunk == 0) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunk));
      }
      free_.push_back(slot_count_++);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    slot_at(slot).fn = std::move(fn);
    const std::uint32_t gen = ++slot_at(slot).gen;
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
    if (gen % 2 == 0 || slot >= slot_count_ || slot_at(slot).gen != gen) {
      return false;
    }
    ++slot_at(slot).gen;
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

  /// Pops and returns the next live event. Requires !empty(). The callback
  /// leaves its slot before it runs, so the events it schedules may reuse
  /// the slot.
  std::pair<Time, Callback> pop() {
    drop_cancelled();
    const Entry top = front();
    drop_front();
    --live_;
    Slot& s = slot_at(top.slot);
    ++s.gen;  // fired: its id no longer cancels anything
    Callback fn = std::move(s.fn);
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
    while (tombstones() > 0 && slot_at(front().slot).gen % 2 == 0) {
      const std::uint32_t slot = front().slot;
      drop_front();
      slot_at(slot).fn = Callback();
      release(slot);
      ++cancelled_skips_;
    }
  }

  // A slot whose generation wrapped to 0 is retired instead of reused, so an
  // id never comes to name a later event (one slot per 2^31 events).
  void release(std::uint32_t slot) {
    if (slot_at(slot).gen != 0) free_.push_back(slot);
  }

  std::deque<Entry> lane_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  // Slots live in fixed-size chunks, so growth never moves one (see above).
  static constexpr std::uint32_t kChunkBits = 9;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  Slot& slot_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunk - 1)];
  }
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_;  // slots whose entry has left the queue
  std::uint64_t scheduled_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t cancelled_skips_ = 0;
};

}  // namespace wsn::sim
