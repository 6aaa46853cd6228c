// Structured event tracing for the simulation stack.
//
// The paper's methodology rests on latency/energy being *predictable* from
// the uniform cost model; when a measured number diverges from the
// analytical one, this layer answers *why*: every virtual send, physical
// transmission, protocol round, and collective phase can emit a
// TraceEvent carrying the simulation time, the node involved, and typed
// attributes. Events flow into a pluggable TraceSink (bounded ring buffer
// by default) and can be exported as JSONL or as a Chrome trace_event file
// loadable in about://tracing / Perfetto (see obs/export.h).
//
// Event names, attribute keys and the few string values come from closed
// vocabularies (kEventNames, kAttrKeys, kAttrCodes below). An event holds
// one-byte ids into them and its attributes in place, so it is a fixed-size
// value: building, emitting, copying and dropping one never allocates, and
// an analyzer matches a name or key by comparing one byte. The exporters
// print the words from the tables; the readers reject text outside them.
//
// Tracing is zero-cost when disabled: emission sites guard on
// `tracer().enabled(category)` — one pointer load, one mask test — before
// constructing any event or attribute, so the hot paths (VirtualNetwork::
// send, LinkLayer::unicast) pay a single predictable branch.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/profiler.h"

namespace wsn::obs {

/// Event categories, maskable individually on the Tracer. One bit each.
enum class Category : std::uint8_t {
  kVirtual = 0,     // VirtualNetwork sends/hops/deliveries
  kLink = 1,        // LinkLayer transmissions and receptions
  kOverlay = 2,     // OverlayNetwork (Section 5 runtime) provenance
  kProtocol = 3,    // topology emulation + leader binding rounds
  kCollective = 4,  // reduce / sort / rank / broadcast / barrier
  kBench = 5,       // bench harness phases
  kApp = 6,         // application-level events
  kReliability = 7, // ARQ retransmits/acks/give-ups and fault injections
};
inline constexpr std::size_t kCategoryCount = 8;
inline constexpr std::uint32_t kAllCategories = (1u << kCategoryCount) - 1;

/// Stable short name used in exports ("vnet", "link", ...).
const char* category_name(Category c);
/// Inverse of category_name; returns false if `name` is unknown.
bool category_from_name(const std::string& name, Category& out);

/// True when `table` is strictly increasing (so unique and
/// binary-searchable) and small enough for one-byte ids. Each vocabulary
/// static_asserts this, as sim::counter_table_ok does for counters.
template <std::size_t N>
constexpr bool vocabulary_ok(const std::string_view (&table)[N]) {
  if (N > 256) return false;
  for (std::size_t i = 1; i < N; ++i) {
    if (!(table[i - 1] < table[i])) return false;
  }
  return true;
}

namespace detail {
/// Deliberately not constexpr: reaching it while compiling a Word from a
/// literal turns a misspelt name into a compile error that names it.
inline void literal_not_in_vocabulary() {}
}  // namespace detail

/// A word of one closed vocabulary: a one-byte index into `Table`, a
/// sorted constexpr string table. Emission sites write the string literal
/// and the consteval constructor turns it into the index, so a literal that
/// is not in the table does not compile. Readers map text in with from();
/// writers print str().
template <const auto& Table>
class Word {
  static_assert(vocabulary_ok(Table));

 public:
  static constexpr std::size_t kCount = std::size(Table);

  /// The table's first word.
  constexpr Word() = default;

  /// Implicit, so an emission site writes the literal itself.
  template <std::size_t N>
  consteval Word(const char (&literal)[N])
      : id_(index_of(std::string_view(literal, N - 1))) {}

  /// The word spelt `text`, or nullopt when the vocabulary lacks it.
  static constexpr std::optional<Word> from(std::string_view text) {
    const auto* it = std::lower_bound(std::begin(Table), std::end(Table), text);
    if (it == std::end(Table) || *it != text) return std::nullopt;
    Word w;
    w.id_ = static_cast<std::uint8_t>(it - std::begin(Table));
    return w;
  }

  constexpr std::string_view str() const { return Table[id_]; }
  constexpr std::size_t id() const { return id_; }

  friend constexpr bool operator==(Word, Word) = default;

 private:
  static consteval std::uint8_t index_of(std::string_view text) {
    for (std::size_t i = 0; i < kCount; ++i) {
      if (Table[i] == text) return static_cast<std::uint8_t>(i);
    }
    detail::literal_not_in_vocabulary();
    return 0;
  }

  std::uint8_t id_ = 0;
};

/// Every event name the tree emits. Adding an event means adding its name
/// here, in order.
inline constexpr std::string_view kEventNames[] = {
    "barrier",             "binding.converged",   "binding.elected",
    "broadcast",           "deliver",             "drop",
    "emulation.adopt",     "emulation.converged", "energy.depleted",
    "fault.burst_begin",   "fault.burst_end",     "fault.corrupt",
    "fault.crash",         "fault.outage_begin",  "fault.outage_end",
    "fault.recover",       "fault.set_budget",    "fd.adopt",
    "fd.adopt_accept",     "fd.adopt_bind",       "fd.audit",
    "fd.audit_conflict",   "fd.audit_heal",       "fd.beat",
    "fd.cell_resume",      "fd.cell_suspect",     "fd.claim",
    "fd.corrupt",          "fd.defect",           "fd.elect",
    "fd.epoch_regress",    "fd.handoff",          "fd.lease_expire",
    "fd.member_heal",      "fd.rejoin",           "fd.roster_corrupt",
    "fd.roster_heal",      "fd.route_repair",     "fd.stranded",
    "hop",                 "late",                "rank",
    "reduce",              "rel.ack",             "rel.dup",
    "rel.give_up",         "rel.retransmit",      "rel.send",
    "self_send",           "send",                "sort",
    "stale",               "unicast"};

/// Every attribute key, likewise.
inline constexpr std::string_view kAttrKeys[] = {
    "adoptions",    "arrive",       "attempts",     "beat_epoch",
    "bound",        "broadcasts",   "budget",       "col",
    "col0",         "col1",         "contributors", "current",
    "deliveries",   "depart",       "dropped",      "dst",
    "duration",     "entries",      "epoch",        "expected",
    "from",         "from_col",     "from_row",     "hop",
    "hops",         "last",         "leader",       "loss",
    "member",       "members",      "messages",     "next",
    "node",         "old",          "partial",      "peer",
    "planned",      "residual",     "row",          "row0",
    "row1",         "seq",          "size",         "spent",
    "src",          "suppressed",   "target",       "to",
    "unique",       "value",        "vhops",        "view_epoch",
    "wait",         "was",          "why",          "winner"};

/// Every string an attribute holds: the `why` of a drop or roster heal and
/// the `target` of a corruption.
inline constexpr std::string_view kAttrCodes[] = {
    "dead",       "epoch",      "foreign",    "leader",     "leases",
    "loss",       "membership", "no_route",   "reinstate",  "routes"};

using EventName = Word<kEventNames>;
using AttrKey = Word<kAttrKeys>;
using AttrCode = Word<kAttrCodes>;

/// Typed attribute value. Integer kinds are kept distinct so exports
/// round-trip exactly (see obs/export.h); the one string kind is a code.
using AttrValue = std::variant<std::int64_t, std::uint64_t, double, AttrCode>;

struct Attr {
  AttrKey key;
  AttrValue value;

  bool operator==(const Attr&) const = default;
};

/// An event's attributes, stored in place: building, copying and dropping
/// a list never touches the heap.
class AttrList {
 public:
  /// The most attributes one event carries. Every emission site stays
  /// within it (the largest carries 6); push_back throws beyond it.
  static constexpr std::size_t kCapacity = 8;

  AttrList() = default;
  AttrList(std::initializer_list<Attr> attrs) {
    for (const Attr& a : attrs) push_back(a);
  }

  void push_back(const Attr& a) {
    if (size_ == kCapacity) {
      throw std::length_error("obs::AttrList: more than 8 attributes");
    }
    items_[size_++] = a;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  const Attr* begin() const { return items_; }
  const Attr* end() const { return items_ + size_; }
  Attr* begin() { return items_; }
  Attr* end() { return items_ + size_; }

  bool operator==(const AttrList& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  Attr items_[kCapacity] = {};
  std::uint8_t size_ = 0;
};

/// One structured trace event: a fixed-size value that allocates nothing.
///
/// `flow` correlates the events of one logical message across layers: a
/// VirtualNetwork or OverlayNetwork send takes a flow id from its
/// simulator (sim::Simulator::next_flow) and every relay/delivery event of
/// that message — including the physical LinkLayer hops beneath an overlay
/// send — carries it, so the full path and per-hop queueing delay of a
/// message can be reconstructed from a trace.
struct TraceEvent {
  double time = 0.0;           // simulation time (cost-model units)
  std::int64_t node = -1;      // node id / grid index; -1 = not node-bound
  Category category = Category::kApp;
  char phase = 'i';            // Chrome phase: 'i' instant, 'B'/'E' span
  EventName name;              // e.g. "send", "hop", "deliver"
  std::uint64_t flow = 0;      // correlation id; 0 = none
  AttrList attrs;

  bool operator==(const TraceEvent&) const = default;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Destination of emitted events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void accept(TraceEvent ev) = 0;
};

/// Process-wide trace dispatcher. Disabled (null sink, empty mask) by
/// default; tests and tools install a sink via ScopedTrace.
class Tracer {
 public:
  /// The hot-path guard: true iff a sink is installed and `c` is enabled.
  bool enabled(Category c) const {
    return sink_ != nullptr &&
           (mask_ & (1u << static_cast<unsigned>(c))) != 0;
  }

  /// Forwards `ev` to the sink. Callers must pre-check enabled(category);
  /// emitting with no sink is a silent no-op.
  void emit(TraceEvent ev) {
    if (sink_ != nullptr) {
      ProfSpan span(ProfCat::kTraceEmit);
      sink_->accept(std::move(ev));
    }
  }

  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }
  void set_mask(std::uint32_t mask) { mask_ = mask; }
  std::uint32_t mask() const { return mask_; }
  void enable(Category c) { mask_ |= 1u << static_cast<unsigned>(c); }

 private:
  TraceSink* sink_ = nullptr;
  std::uint32_t mask_ = 0;
};

/// The process-global tracer all emission sites consult.
Tracer& tracer();

/// RAII installer: routes the global tracer into `sink` with `mask` for the
/// current scope, restoring the previous sink/mask on destruction. Keeps
/// tests and tools from leaking trace state into each other.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceSink& sink, std::uint32_t mask = kAllCategories)
      : prev_sink_(tracer().sink()), prev_mask_(tracer().mask()) {
    tracer().set_sink(&sink);
    tracer().set_mask(mask);
  }
  ~ScopedTrace() {
    tracer().set_sink(prev_sink_);
    tracer().set_mask(prev_mask_);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceSink* prev_sink_;
  std::uint32_t prev_mask_;
};

}  // namespace wsn::obs
