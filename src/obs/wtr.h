// "wtr" — the compact binary trace format.
//
// JSONL is the archival, grep/jq-able export, but at production scale
// (ROADMAP items 2-3: 100k-1M-node deployments, multi-GB captures) its
// ~100+ bytes/event and per-event text formatting dominate the capture
// path. wtr is the same event model packed for volume:
//
//   segment := header record*
//   header  := magic "WTRC" | u16le version (=1) | u16le reserved
//            | varint segment_index
//   record  := varint payload_len | payload
//   payload := tag byte, then per tag:
//     kTagIntern (1): varint string_id | raw bytes (the string)
//                     ids are assigned densely in first-use order and an
//                     intern record always precedes the first use; an
//                     event name and an attr key spelt alike share one id
//     kTagEvent  (2): f64le time | zigzag-varint node | u8 category
//                   | u8 phase | varint name_id | varint flow
//                   | varint attr_count
//                   | attr*: varint key_id | u8 kind | value
//                     kind 0: zigzag-varint int64    kind 1: varint uint64
//                     kind 2: f64le double           kind 3: varint len, bytes
//     kTagFooter (3): varint event_count | u32le crc32 of every byte of the
//                     segment before this record's length prefix
//
// Names, keys and kind-3 strings are words of the trace vocabulary
// (obs/trace.h); the reader reports any other word as corruption.
//
// Doubles travel as their raw 8 bytes, so wtr -> JSONL conversion is
// byte-identical to a direct JSONL export of the same events (the JSONL
// writer's %.17g round-trips exactly). Every segment carries its own
// string table (reset on rotation), so any single trace.wtr.NNN file is
// decodable on its own — a crash mid-run costs at most the unflushed tail
// of the last segment, and the footer makes that truncation detectable.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace wsn::obs::wtr {

inline constexpr char kMagic[4] = {'W', 'T', 'R', 'C'};
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kHeaderFixedBytes = 8;  // magic + version + rsvd

inline constexpr std::uint8_t kTagIntern = 1;
inline constexpr std::uint8_t kTagEvent = 2;
inline constexpr std::uint8_t kTagFooter = 3;

inline constexpr std::uint8_t kAttrInt = 0;
inline constexpr std::uint8_t kAttrUint = 1;
inline constexpr std::uint8_t kAttrDouble = 2;
inline constexpr std::uint8_t kAttrString = 3;

/// LEB128 append (7 bits per byte, high bit = continuation).
inline void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

/// Zigzag: small-magnitude signed values stay short varints.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void append_f64le(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((bits >> (8 * i)) & 0xff);
  }
}

/// Incremental CRC-32 (IEEE, polynomial 0xEDB88320) over the segment bytes;
/// the footer stores it so a reader can tell truncation from corruption.
class Crc32 {
 public:
  void update(const char* data, std::size_t n);
  void update(const std::string& s) { update(s.data(), s.size()); }
  std::uint32_t value() const { return ~state_; }
  void reset() { state_ = 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

/// Encodes events of one segment into a caller-owned append buffer. The
/// intern table lives here, indexed by vocabulary id; reset() starts a
/// fresh self-contained segment. All appends reuse internal scratch, so the
/// steady-state encode path does not allocate.
class SegmentEncoder {
 public:
  /// Appends the segment header (not length-prefixed).
  void begin_segment(std::string& out, std::uint64_t segment_index);

  /// Appends the intern records this event needs, then the event record.
  void append_event(const TraceEvent& ev, std::string& out);

  /// Appends the footer record. `crc` must cover every segment byte already
  /// written (header + all records), i.e. everything before this footer.
  static void append_footer(std::string& out, std::uint64_t event_count,
                            std::uint32_t crc);

  void reset() {
    name_ids_.fill(0);
    key_ids_.fill(0);
    next_id_ = 0;
  }

 private:
  /// The wire id of `word`, whose vocabulary's ids are `ids` (`twin_ids`
  /// the other's), appending its intern record to `out` on first use. A
  /// name and a key spelt alike share one id.
  template <typename Twin, typename W, typename Ids, typename TwinIds>
  std::uint64_t wire_id(W word, Ids& ids, TwinIds& twin_ids,
                        std::string& out);

  // Wire id + 1 of each name and key interned in this segment, 0 before
  // its first use.
  std::array<std::uint64_t, EventName::kCount> name_ids_{};
  std::array<std::uint64_t, AttrKey::kCount> key_ids_{};
  std::uint64_t next_id_ = 0;
  std::string payload_;  // record staging buffer, reused across events
  std::string intern_scratch_;  // intern-record staging; separate from
                                // payload_, which intern() must not disturb
                                // mid-event
};

/// What ended a segment read.
enum class SegmentEnd {
  kClean,      // footer present, counts and CRC agree
  kTruncated,  // EOF before a complete footer (crash / unflushed tail)
  kCorrupt,    // structurally bad bytes or CRC/count mismatch
};

/// Pull-based decoder over one segment file. Reads through a bounded
/// buffer — one record at a time — so decoding a multi-GB segment needs
/// only record-sized memory. Constructor throws std::runtime_error on an
/// unopenable file, a bad magic, or an unsupported version (those are
/// structural errors, not truncations). Truncated or corrupt tails are
/// reported via end()/finding() after next() returns false.
class SegmentReader {
 public:
  explicit SegmentReader(std::string path);
  ~SegmentReader();
  SegmentReader(const SegmentReader&) = delete;
  SegmentReader& operator=(const SegmentReader&) = delete;

  /// Fills `ev` with the next event; false at end of segment.
  bool next(TraceEvent& ev);

  SegmentEnd end() const { return end_; }
  /// Human-readable description of a non-clean end ("" when clean).
  const std::string& finding() const { return finding_; }
  std::uint64_t events_read() const { return events_read_; }
  std::uint64_t segment_index() const { return segment_index_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  const std::string& path() const { return path_; }

 private:
  bool read_record();  // fills payload_; false at EOF/footer/error
  bool read_exact(char* dst, std::size_t n);
  void truncated(const std::string& why);
  void corrupt(const std::string& why);

  /// One intern record: its bytes and the words they spell.
  struct Interned {
    std::string text;
    std::optional<EventName> name;
    std::optional<AttrKey> key;
  };

  std::string path_;
  std::FILE* file_ = nullptr;
  Crc32 crc_;
  std::string payload_;
  std::vector<Interned> table_;
  SegmentEnd end_ = SegmentEnd::kClean;
  std::string finding_;
  bool done_ = false;
  std::uint64_t events_read_ = 0;
  std::uint64_t segment_index_ = 0;
  std::uint64_t bytes_read_ = 0;
};

}  // namespace wsn::obs::wtr
