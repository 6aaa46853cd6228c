// Time-ordered event queue for the discrete-event simulation kernel.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
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

/// A void() callable held where it runs: an ops-table pointer and a
/// pointer-aligned buffer. A callable that fits the buffer is constructed in
/// place; any other is boxed on the heap. A Callback cannot be copied or
/// moved, so neither can the callable it holds once it is constructed.
class Callback {
 public:
  static constexpr std::size_t kInlineSize = 48;

  Callback() = default;
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Replaces the held callable with `f`, constructed straight into the
  /// buffer (or its box). If constructing `f` throws, the Callback is left
  /// empty.
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<std::is_invocable_r_v<void, Fn&>>>
  void emplace(F&& f) {
    reset();
    if constexpr (kInPlace<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
    }
    ops_ = &kOps<Fn>;
  }

  /// Destroys the held callable, if any.
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  /// Runs the callable. Requires a non-empty Callback.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    void (*destroy)(void* buf) noexcept;
  };

  template <typename Fn>
  static constexpr bool kInPlace =
      sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(void*);

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
  static void destroy(void* buf) noexcept {
    if constexpr (kInPlace<Fn>) {
      target<Fn>(buf).~Fn();
    } else {
      delete &target<Fn>(buf);
    }
  }
  template <typename Fn>
  static constexpr Ops kOps{&invoke<Fn>, &destroy<Fn>};

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineSize];
};

/// Timestamped callbacks, dispatched in time order with ties broken by
/// insertion order so that simulations are deterministic. The queue keeps
/// the simulation's clock: dispatch() moves it to each event's time, and
/// advance() moves it on between events.
///
/// Each queued entry is one 16-byte key: the event's time, normalized so
/// that its bits order like the double (-0.0 folded into +0.0), then a
/// 40-bit insertion sequence number, then a 24-bit slot index. One unsigned
/// 128-bit compare therefore orders two entries by (time, insertion order),
/// and a key is never equal to another.
///
/// Keys sit in four FIFO lanes, whose keys only increase, a timing wheel
/// and a min-heap. A key goes to the first that takes it:
///   - the lane of its delay d = at - now(), if the key is above that lane's
///     tail. Each lane holds one delay. Under the paper's uniform cost model
///     every frame of one size has the same latency, so a stream of sends
///     at one delay queues keys now + d that rise with the clock, and each
///     joins its lane's tail; a setup flood is such a stream at delay 1. A
///     key whose delay has no lane claims a free one for that delay, and a
///     lane is free again once it drains.
///   - the wheel: a ring of 256 buckets of 1/16 unit each. A key parks
///     unsorted in bucket floor(at * 16) if that bucket lies within 16
///     units of the clock's, is not the bucket being served (below) and
///     its ring slot is free or already holds it. These are the jittered
///     timers (ARQ retransmits 1.5-1.875 units out), whose delays never
///     repeat, delays that find every lane claimed, and keys that round
///     below their lane's tail.
///   - the heap otherwise: keys in the bucket being served, keys past the
///     wheel's horizon or whose slot holds another bucket, and times below
///     0 or from 2^48 up.
/// Buckets open in time order. While none is served, the wheel's front is
/// a gate key: its least bucket's start time with sequence 0, below every
/// key that bucket holds and above every key of an earlier bucket. When
/// the gate is the least front, the bucket opens: its tombstones are
/// dropped, freeing each cancelled timer's slot without a sift, and its
/// live keys are sorted and served as one more lane. So every structure is
/// sorted or behind its gate, and dispatch takes the least key of the lane
/// fronts (the wheel's among them) and the heap's top: exactly the order
/// one heap would give. The least lane front is kept cached, and so is the
/// least of the others, so a dispatch costs one compare to choose and one
/// to keep its lane in front. (Only a caller of the queue itself can make
/// the clock go back before the bucket being served; the served keys then
/// park again in it, so the earlier bucket can open first.)
/// The delay lanes stay although the wheel could take their streams: a
/// lane push and pop cost less than a park, a sweep and a sort, and with
/// the wheel alone the run phases ran slower (EXPERIMENTS.md E22, "Timers
/// park in a wheel").
/// Measured traffic (stackbench; EXPERIMENTS.md E22): of the `soak` run
/// phase's schedules, 65% are deliveries at delay 0.25 and 33% are ARQ
/// timers, 98% of which are cancelled before they fire; of `query`'s, 44%
/// sit at delay 1, 24% at 0.25 and 9% are posts, and 24% are timers; of
/// setup's, 92-93% sit at delay 1. The lanes serve 98-99% of setup's pops
/// and the wheel the rest. The lanes serve 65.9% of `soak`'s run-phase
/// pops, the wheel 34.0% and the heap 0.04% (538-967 a pass); on `query`
/// the lanes serve 68.6%, the wheel 31.4%, the heap none.
///
/// The heap is std::push_heap and std::pop_heap over a vector of keys. The
/// lanes and the wheel's buckets keep their keys in fixed 255-key blocks
/// drawn from one pool and recycled through a free list, so a lane never
/// relocates a key and, once the queue has grown to its working depth,
/// neither allocates.
///
/// Each queued entry owns a slot holding its callback and a generation that
/// is odd while the event is live. An EventId is (generation << 32) | slot,
/// so cancel() is O(1) and returns false, exactly, for an id that fired, was
/// cancelled, was never issued, or is 0. Slots are reused once their entry
/// leaves the queue, so nothing here grows with run length.
///
/// A slot stores its callback in place: schedule() constructs the closure
/// straight into the slot and dispatch() runs it there, so a closure that
/// fits is never moved and scheduling it allocates nothing once the queue
/// has grown to its working depth. Callback's 48-byte buffer is sized to the
/// hottest closures: the link's delivery (the sender and receiver, a
/// std::any payload, size and flow); the ARQ's retransmit timer and the
/// failure detector's timers fit too. With the generation and the free-list
/// link, a slot is then exactly 64 bytes.
/// Slots live in fixed 512-slot chunks, so growth never relocates or copies
/// a live slot: a stack's setup floods queue ~81k deliveries at once, and a
/// vector of slots doubling to 128K entries would leave its old buffers as
/// peak-RSS growth on every stack built afterwards. (A std::deque never
/// relocates either, but its 8-slot blocks make the block table 64x larger
/// and slow deep-queue dispatch; see EXPERIMENTS.md E22.)
///
/// The packing caps the events ever scheduled at 2^40 and the events queued
/// at once at 2^24; schedule() throws std::length_error past either cap, so
/// the order is never wrong. Times must be finite (std::invalid_argument).
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`, constructing it in its slot.
  /// Returns a handle for cancel().
  template <typename F>
  EventId schedule(Time at, F&& fn) {
    if (!std::isfinite(at)) {
      throw std::invalid_argument("EventQueue: event time must be finite");
    }
    if (scheduled_ == kMaxSeq) {
      throw std::length_error("EventQueue: more than 2^40 events scheduled");
    }
    if (free_ == kNoSlot) add_chunk();
    const std::uint32_t slot = free_;
    Slot& s = slot_at(slot);
    s.fn.emplace(std::forward<F>(fn));
    free_ = s.next_free;
    const std::uint32_t gen = ++s.gen;
    route(make_key(at, scheduled_++, slot), at);
    ++live_;
    peak_size_ = std::max(peak_size_, ++queued_);
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
    settled_ = false;
    return true;
  }

  /// Moves the clock to `now`, as when the simulator runs up to a time past
  /// the last dispatched event. dispatch() moves it to each event's time.
  /// schedule() measures a key's delay from it, which only picks the key's
  /// lane: any value leaves the dispatch order as it is.
  void advance(Time now) { now_ = now; }

  /// The clock: the last dispatched event's time, or what advance() set.
  Time now() const { return now_; }

  /// Events dispatched so far.
  std::uint64_t dispatched() const { return dispatched_; }

  bool empty() const { return live_ == 0; }

  /// Live (scheduled, not yet fired or cancelled) events.
  std::size_t live() const { return live_; }

  /// Cancelled entries still queued, awaiting a lazy skip. Queue memory is
  /// live() + tombstones() entries; a high tombstone count means
  /// cancel-heavy traffic (ARQ timers) is bloating the kernel.
  std::size_t tombstones() const { return queued_ - live_; }

  /// Events ever scheduled.
  std::uint64_t total_scheduled() const { return scheduled_; }

  /// High-water mark of the queue (live + tombstoned entries).
  std::size_t peak_size() const { return peak_size_; }

  /// Tombstoned entries dropped: skipped at the front while dispatching or
  /// peeking, or swept as their wheel bucket opens.
  std::uint64_t cancelled_skips() const { return cancelled_skips_; }

  /// Entries the heap served, tombstone skips included.
  std::uint64_t heap_pops() const { return heap_pops_; }

  /// Entries that left through the wheel: its opened buckets' live keys and
  /// the tombstones dropped as a bucket opens. Every entry that left through
  /// neither the heap nor the wheel left through a lane.
  std::uint64_t wheel_pops() const { return wheel_pops_; }

  /// 4 KiB key blocks the lanes and the wheel's buckets have allocated
  /// (holding keys, or free for reuse).
  std::size_t lane_blocks() const { return lane_blocks_.size(); }

  /// 512-slot chunks allocated; slots are never freed back to the system.
  std::size_t slot_chunks() const { return chunks_.size(); }

  /// Time of the next live event. Requires !empty().
  Time next_time() {
    if (!settled_) settle();
    return time_of(front());
  }

  /// Removes the next live event, moves the clock to its time and runs its
  /// callback where it sits in its slot, then destroys the callback and
  /// frees the slot; returns the event's time. Requires !empty(). The
  /// generation is bumped before the callback runs, so the event cancelling
  /// its own id returns false, and the slot stays off the free list until
  /// the callback has returned or thrown. Once it has returned, the next
  /// live key is brought to the front here (tombstones dropped, a leading
  /// bucket opened), so a caller timing dispatch() times that work as well,
  /// and next_time() finds it done.
  Time dispatch() {
    if (!settled_) settle();
    const Key top = take_front();
    settled_ = false;
    --live_;
    const std::uint32_t slot = slot_of(top);
    Slot& s = slot_at(slot);
    ++s.gen;  // fired: its id no longer cancels anything
    const Time at = time_of(top);
    now_ = at;
    ++dispatched_;
    {
      const Release done{*this, slot};
      s.fn();
    }
    if (live_ > 0) settle();
    return at;
  }

 private:
  // (time bits << 64) | (seq << 24) | slot; see the class comment.
  using Key = unsigned __int128;
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << 40;
  static constexpr std::uint32_t kMaxSlots = std::uint32_t{1} << kSlotBits;
  // Above every key (no finite time has these bits): stands for an empty
  // lane's front.
  static constexpr Key kPad = ~Key{0};

  static Key make_key(Time at, std::uint64_t seq, std::uint32_t slot) {
    // +0.0 folds -0.0 into +0.0. Flipping the sign bit of a non-negative
    // time, and every bit of a negative one, makes the bits order like the
    // times.
    const auto bits = std::bit_cast<std::uint64_t>(at + 0.0);
    const std::uint64_t flip = (0 - (bits >> 63)) | (std::uint64_t{1} << 63);
    return (static_cast<Key>(bits ^ flip) << 64) |
           (static_cast<Key>(seq) << kSlotBits) | slot;
  }
  static Time time_of(Key key) {
    const auto bits = static_cast<std::uint64_t>(key >> 64);
    const std::uint64_t flip = ((bits >> 63) - 1) | (std::uint64_t{1} << 63);
    return std::bit_cast<Time>(bits ^ flip);
  }
  static std::uint32_t slot_of(Key key) {
    return static_cast<std::uint32_t>(key) & (kMaxSlots - 1);
  }

  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t next_free = 0;  // the free list's link while unused
    Callback fn;
  };

  // Destroys the dispatched callback and frees its slot, also when the
  // callback throws.
  struct Release {
    EventQueue& queue;
    std::uint32_t slot;
    ~Release() {
      queue.slot_at(slot).fn.reset();
      queue.release(slot);
    }
  };

  bool lane_first() const {
    return heap_.empty() || lane_front_ < heap_.front();
  }
  Key front() const { return lane_first() ? lane_front_ : heap_.front(); }
  Key take_front() {
    --queued_;
    if (lane_first()) {
      const Key key = lane_front_;
      lane_pop();
      return key;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const Key key = heap_.back();
    heap_.pop_back();
    ++heap_pops_;
    return key;
  }

  // Brings the least live key to the front: opens the bucket whose gate
  // leads and drops the tombstones that lead. Requires !empty(). Only a
  // pop, a cancel() or a parked key's gate can unsettle the front, so
  // next_time() and dispatch() skip this while it stays settled.
  void settle() {
    for (;;) {
      if (least_ == kWheel && lanes_[kWheel].head == nullptr &&
          lane_first()) {
        open_bucket();
      } else if (queued_ > live_ &&
                 slot_at(slot_of(front())).gen % 2 == 0) {
        drop(slot_of(take_front()));
      } else {
        settled_ = true;
        return;
      }
    }
  }
  // Frees a tombstone's slot once its key has left the queue.
  void drop(std::uint32_t slot) {
    slot_at(slot).fn.reset();
    release(slot);
    ++cancelled_skips_;
  }

  // A lane: fixed blocks of keys chained head to tail, none while it is
  // empty. A block the front has left goes to the pool's free list and is
  // reused for the next tail block of any lane or bucket.
  struct LaneBlock {
    static constexpr std::uint32_t kKeys = 255;  // 4 KiB with the link
    Key keys[kKeys];
    LaneBlock* next = nullptr;
  };
  struct Lane {
    LaneBlock* head = nullptr;
    LaneBlock* tail = nullptr;
    std::uint32_t begin = 0;  // the front's index in head
    std::uint32_t end = 0;    // one past the back's index in tail
    Key front = kPad;         // kPad while empty; the wheel's may be a gate
    Key back = 0;             // the last key pushed
    Time delay = 0;           // its delay while claimed
  };
  // lanes_[0..kLanes) are the delay lanes, and lanes_[kWheel] serves the
  // wheel's open bucket.
  static constexpr std::uint32_t kLanes = 4;
  static constexpr std::uint32_t kWheel = kLanes;

  void lane_start(std::uint32_t i, Key key) {
    Lane& lane = lanes_[i];
    lane.head = lane.tail = lane_block();
    lane.begin = lane.end = 0;
    lane.front = key;
    lane_push(lane, key);
    lower_front(i, key);
  }
  void lane_push(Lane& lane, Key key) {
    if (lane.end == LaneBlock::kKeys) {
      lane.tail = lane.tail->next = lane_block();
      lane.end = 0;
    }
    lane.tail->keys[lane.end++] = key;
    lane.back = key;
  }
  // Lane i's front fell to `key`: keeps the least front and the least of
  // the other lanes' fronts cached.
  void lower_front(std::uint32_t i, Key key) {
    if (i == least_) {
      lane_front_ = key;
    } else if (key < lane_front_) {
      second_ = lane_front_;
      lane_front_ = key;
      least_ = i;
    } else if (key < second_) {
      second_ = key;
    }
  }
  // Drops the least lane's front. While the next key stays below every
  // other lane's front, which is nearly always, that is the whole work.
  void lane_pop() {
    wheel_pops_ += least_ == kWheel;
    Lane& lane = lanes_[least_];
    if (++lane.begin < (lane.head == lane.tail ? lane.end : LaneBlock::kKeys)) {
      lane.front = lane.head->keys[lane.begin];
    } else {
      lane_next_block();
    }
    if (lane.front < second_) {
      lane_front_ = lane.front;
    } else {
      find_least();
    }
  }
  // The least lane's front has left its block: the next block's first key
  // is the front, or the lane has drained. A drained wheel lane's front
  // becomes the gate of the next parked bucket.
  [[gnu::noinline]] void lane_next_block() {
    Lane& lane = lanes_[least_];
    LaneBlock* done = std::exchange(lane.head, lane.head->next);
    done->next = std::exchange(lane_free_, done);
    lane.begin = 0;
    if (lane.head != nullptr) {
      lane.front = lane.head->keys[0];
      return;
    }
    lane.tail = nullptr;
    lane.front = least_ == kWheel && parked_ > 0 ? gate(next_parked()) : kPad;
  }
  // Finds the least front and the least of the others over all five.
  void find_least() {
    std::uint32_t least = 0;
    Key second = kPad;
    for (std::uint32_t i = 1; i <= kWheel; ++i) {
      const Key front = lanes_[i].front;
      if (front < lanes_[least].front) {
        second = lanes_[least].front;
        least = i;
      } else if (front < second) {
        second = front;
      }
    }
    least_ = least;
    lane_front_ = lanes_[least].front;
    second_ = second;
  }
  // To the lane of the key's delay if above that lane's tail, else to a
  // free lane it claims for its delay, else to the wheel.
  void route(Key key, Time at) {
    const Time delay = at - now_;
    std::uint32_t unclaimed = kLanes;
    for (std::uint32_t i = 0; i < kLanes; ++i) {
      Lane& lane = lanes_[i];
      if (lane.head == nullptr) {
        if (unclaimed == kLanes) unclaimed = i;
      } else if (lane.delay == delay) {
        if (key > lane.back) {
          lane_push(lane, key);
        } else {
          park(key, at);
        }
        return;
      }
    }
    if (unclaimed == kLanes) {
      park(key, at);
      return;
    }
    lanes_[unclaimed].delay = delay;
    lane_start(unclaimed, key);
  }
  LaneBlock* lane_block() {
    if (lane_free_ == nullptr) {
      lane_blocks_.push_back(std::make_unique<LaneBlock>());
      return lane_blocks_.back().get();
    }
    LaneBlock* block = std::exchange(lane_free_, lane_free_->next);
    block->next = nullptr;
    return block;
  }

  // The wheel: bucket b holds the parked keys whose time t has
  // floor(t * kPerUnit) == b. They sit in ring_[b % kBuckets], which holds
  // b while it has keys, so a key whose slot holds another bucket is
  // refused. Bucket numbers stay below 2^52, so they and their start times
  // convert exactly.
  static constexpr std::uint64_t kBuckets = 256;
  static constexpr Time kPerUnit = 16.0;
  static constexpr Time kBucketLimit = 0x1p52;
  // A bucket begun at least kFar buckets (2 units) ahead of the clock holds
  // its first keys in place, so the sparse buckets of far, periodic timers
  // (leases, beats, audits) hold no block: with a block each, they raised
  // `soak`'s peak RSS by 0.3 MB. Nearer buckets fill densely and chain
  // blocks from their first key, which is faster: with every bucket holding
  // keys in place, a 256-deep churn of random timers ran ~10% slower.
  static constexpr Time kFar = 32;
  struct Bucket {
    static constexpr std::uint32_t kInPlace = 4;
    Key first[kInPlace];
    std::uint64_t number = 0;   // the bucket parked here while not empty
    std::uint32_t held = 0;     // keys in `first`
    std::uint32_t end = 0;      // one past the last key in tail
    LaneBlock* head = nullptr;  // the other keys
    LaneBlock* tail = nullptr;

    bool empty() const { return held == 0 && head == nullptr; }
  };

  // Below every key of bucket b, above every key of the buckets before it.
  static Key gate(std::uint64_t b) {
    return make_key(static_cast<Time>(b) / kPerUnit, 0, 0);
  }
  // A key no lane takes: parked in its bucket if that lies inside the
  // horizon, is not the bucket being served and its slot is free or holds
  // it; else to the heap. While no bucket is served, a key parked before
  // every other one moves the wheel's gate down.
  void park(Key key, Time at) {
    const Time scaled = at * kPerUnit;
    const Time clock = std::floor(std::max(now_ * kPerUnit, Time{0}));
    if (!(scaled >= 0 && scaled < kBucketLimit &&
          scaled < clock + static_cast<Time>(kBuckets))) {
      heap_push(key);
      return;
    }
    const auto b = static_cast<std::uint64_t>(scaled);
    Lane& wheel = lanes_[kWheel];
    if (wheel.head != nullptr && b <= open_) {
      if (b == open_) {
        heap_push(key);
        return;
      }
      unopen();
    }
    Bucket& bucket = ring_[b % kBuckets];
    if (bucket.empty()) {
      bucket.number = b;
      mark(b);
    } else if (bucket.number != b) {
      heap_push(key);
      return;
    }
    if (bucket.head == nullptr && bucket.held < Bucket::kInPlace &&
        scaled >= clock + kFar) {
      bucket.first[bucket.held++] = key;
      ++parked_;
    } else {
      chain(bucket, key);
    }
    if (wheel.head != nullptr) return;
    const Key g = gate(b);
    if (g < wheel.front) {
      wheel.front = g;
      lower_front(kWheel, g);
      if (least_ == kWheel) settled_ = false;
    }
  }
  // Appends `key` to the bucket's blocks.
  void chain(Bucket& bucket, Key key) {
    ++parked_;
    if (bucket.head == nullptr) {
      bucket.head = bucket.tail = lane_block();
      bucket.end = 0;
    } else if (bucket.end == LaneBlock::kKeys) {
      bucket.tail = bucket.tail->next = lane_block();
      bucket.end = 0;
    }
    bucket.tail->keys[bucket.end++] = key;
  }
  void mark(std::uint64_t b) {
    marked_[b % kBuckets / 64] |= std::uint64_t{1} << (b % 64);
  }
  // The least parked bucket, when every parked bucket lies after the open
  // one: the first marked slot after the open one that holds a bucket less
  // than a ring ahead, else the least bucket marked. Requires parked_ > 0.
  std::uint64_t next_parked() const {
    std::uint64_t least = ~std::uint64_t{0};
    for (std::uint64_t b = open_ + 1; b <= open_ + kBuckets; ++b) {
      const std::uint64_t r = b % kBuckets;
      const std::uint64_t word = marked_[r / 64] >> (r % 64);
      if (word == 0) {
        b += 63 - r % 64;
        continue;
      }
      b += static_cast<std::uint64_t>(std::countr_zero(word));
      if (b > open_ + kBuckets) break;
      const std::uint64_t n = ring_[b % kBuckets].number;
      if (n < open_ + kBuckets) return n;
      least = std::min(least, n);
    }
    return least;
  }
  // Opens the least parked bucket, whose gate leads: drops its tombstones,
  // freeing their slots, and moves its live keys, sorted, to the wheel's
  // lane, which serves them. Out of line: it runs once per bucket.
  [[gnu::noinline]] void open_bucket() {
    Lane& wheel = lanes_[kWheel];
    open_ = static_cast<std::uint64_t>(time_of(wheel.front) * kPerUnit);
    const std::uint64_t r = open_ % kBuckets;
    marked_[r / 64] &= ~(std::uint64_t{1} << (r % 64));
    Bucket& bucket = ring_[r];
    std::size_t kept = 0;
    std::size_t swept = 0;
    const auto sweep = [&](Key key) {
      const std::uint32_t slot = slot_of(key);
      if (slot_at(slot).gen % 2 == 0) {
        drop(slot);
        ++swept;
        return;
      }
      if (kept++ == 0) {
        wheel.head = wheel.tail = lane_block();
        wheel.begin = wheel.end = 0;
      }
      lane_push(wheel, key);
    };
    for (std::uint32_t i = 0; i < bucket.held; ++i) sweep(bucket.first[i]);
    for (LaneBlock* in = bucket.head; in != nullptr;) {
      const std::uint32_t n = in == bucket.tail ? bucket.end : LaneBlock::kKeys;
      for (std::uint32_t i = 0; i < n; ++i) sweep(in->keys[i]);
      LaneBlock* read = std::exchange(in, in->next);
      read->next = std::exchange(lane_free_, read);
    }
    bucket.held = 0;
    bucket.head = bucket.tail = nullptr;
    parked_ -= kept + swept;
    queued_ -= swept;
    wheel_pops_ += swept;
    if (kept == 0) {
      wheel.front = parked_ > 0 ? gate(next_parked()) : kPad;
    } else {
      sort_chain(wheel.head, kept);
      wheel.front = wheel.head->keys[0];
    }
    find_least();
  }
  // A key parks before the bucket being served only once the clock has
  // gone back past it, as a caller of the queue itself may make it. The
  // served keys park again in their bucket (or, if its slot has been taken
  // meanwhile, go to the heap), so the earlier bucket can open first.
  [[gnu::noinline]] void unopen() {
    Lane& wheel = lanes_[kWheel];
    Bucket& bucket = ring_[open_ % kBuckets];
    const bool repark = bucket.empty();
    if (repark) {
      bucket.number = open_;
      mark(open_);
    }
    while (wheel.head != nullptr) {
      const std::uint32_t n =
          wheel.head == wheel.tail ? wheel.end : LaneBlock::kKeys;
      for (std::uint32_t i = wheel.begin; i < n; ++i) {
        if (repark) {
          chain(bucket, wheel.head->keys[i]);
        } else {
          heap_push(wheel.head->keys[i]);
        }
      }
      wheel.begin = 0;
      LaneBlock* done = std::exchange(wheel.head, wheel.head->next);
      done->next = std::exchange(lane_free_, done);
    }
    wheel.tail = nullptr;
    if (repark) {
      wheel.front = gate(open_);
    } else {
      wheel.front = parked_ > 0 ? gate(next_parked()) : kPad;
    }
    find_least();
    settled_ = false;
  }
  // Sorts the first `n` keys of a chain: in place when one block holds
  // them, as nearly always after a sweep, else through scratch_.
  void sort_chain(LaneBlock* head, std::size_t n) {
    if (n <= LaneBlock::kKeys) {
      std::sort(head->keys, head->keys + n);
      return;
    }
    scratch_.clear();
    for (LaneBlock* b = head; scratch_.size() < n; b = b->next) {
      const std::size_t m = std::min<std::size_t>(LaneBlock::kKeys,
                                                  n - scratch_.size());
      scratch_.insert(scratch_.end(), b->keys, b->keys + m);
    }
    std::sort(scratch_.begin(), scratch_.end());
    std::size_t i = 0;
    for (LaneBlock* b = head; i < n; b = b->next) {
      const std::size_t m = std::min<std::size_t>(LaneBlock::kKeys, n - i);
      std::copy_n(scratch_.begin() + static_cast<std::ptrdiff_t>(i), m,
                  b->keys);
      i += m;
    }
  }

  void heap_push(Key key) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  // A slot whose generation wrapped to 0 is retired instead of reused, so an
  // id never comes to name a later event (one slot per 2^31 events).
  void release(std::uint32_t slot) {
    Slot& s = slot_at(slot);
    if (s.gen == 0) return;
    s.next_free = free_;
    free_ = slot;
  }

  // Slots live in fixed-size chunks, so growth never moves one (see above).
  // A new chunk's slots join the free list in index order.
  static constexpr std::uint32_t kChunkBits = 9;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  Slot& slot_at(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunk - 1)];
  }
  void add_chunk() {
    if (slot_count_ == kMaxSlots) {
      throw std::length_error("EventQueue: more than 2^24 events queued");
    }
    chunks_.push_back(std::make_unique<Slot[]>(kChunk));
    Slot* chunk = chunks_.back().get();
    for (std::uint32_t i = 0; i < kChunk; ++i) {
      chunk[i].next_free = slot_count_ + i + 1;
    }
    chunk[kChunk - 1].next_free = free_;
    free_ = slot_count_;
    slot_count_ += kChunk;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_ = kNoSlot;  // head of the free slots' list

  std::vector<Key> heap_;  // a min-heap under std::greater

  Lane lanes_[kWheel + 1];
  Key lane_front_ = kPad;     // the least lane front
  std::uint32_t least_ = 0;   // its lane
  Key second_ = kPad;         // the least front of the other lanes
  std::vector<std::unique_ptr<LaneBlock>> lane_blocks_;  // owns every block
  LaneBlock* lane_free_ = nullptr;

  Time now_ = 0;  // the clock; schedule() measures a delay from it
  std::uint64_t dispatched_ = 0;
  std::size_t queued_ = 0;  // keys in the lanes, the wheel and the heap
  std::uint64_t scheduled_ = 0;
  std::size_t live_ = 0;
  bool settled_ = true;  // the front is live, as settle() leaves it
  std::size_t peak_size_ = 0;
  std::uint64_t cancelled_skips_ = 0;
  std::uint64_t heap_pops_ = 0;
  std::uint64_t wheel_pops_ = 0;

  std::uint64_t open_ = 0;    // the bucket served, or last served
  std::size_t parked_ = 0;    // keys in the ring's buckets
  std::uint64_t marked_[kBuckets / 64] = {};  // the buckets holding keys
  Bucket ring_[kBuckets];
  std::vector<Key> scratch_;  // sorts a bucket that kept more than a block
};

}  // namespace wsn::sim
