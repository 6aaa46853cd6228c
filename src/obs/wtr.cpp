#include "obs/wtr.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>
#include <string_view>

namespace wsn::obs::wtr {

namespace {

/// CRC-32 lookup table, built once (thread-safe since C++11 magic statics).
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Bounds-checked cursor over one record payload. Decode errors throw; the
/// SegmentReader catches them and classifies the record as corrupt.
struct Cursor {
  const std::string& buf;
  std::size_t pos = 0;

  std::uint8_t u8() {
    if (pos >= buf.size()) throw std::runtime_error("record payload overrun");
    return static_cast<std::uint8_t>(buf[pos++]);
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw std::runtime_error("varint too long");
  }

  double f64() {
    if (pos + 8 > buf.size()) throw std::runtime_error("record payload overrun");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(buf[pos + static_cast<std::size_t>(i)]))
              << (8 * i);
    }
    pos += 8;
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string_view bytes(std::uint64_t n) {
    if (n > buf.size() - pos) {
      throw std::runtime_error("record payload overrun");
    }
    const std::string_view s(buf.data() + pos, static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return s;
  }

  std::string_view rest() { return bytes(buf.size() - pos); }
  bool at_end() const { return pos == buf.size(); }
};

}  // namespace

void Crc32::update(const char* data, std::size_t n) {
  const auto& table = crc_table();
  std::uint32_t c = state_;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ static_cast<std::uint8_t>(data[i])) & 0xff] ^ (c >> 8);
  }
  state_ = c;
}

void SegmentEncoder::begin_segment(std::string& out,
                                   std::uint64_t segment_index) {
  out.append(kMagic, sizeof kMagic);
  out += static_cast<char>(kVersion & 0xff);
  out += static_cast<char>((kVersion >> 8) & 0xff);
  out += '\0';  // reserved
  out += '\0';
  append_varint(out, segment_index);
}

template <typename Twin, typename W, typename Ids, typename TwinIds>
std::uint64_t SegmentEncoder::wire_id(W word, Ids& ids, TwinIds& twin_ids,
                                      std::string& out) {
  std::uint64_t& slot = ids[word.id()];
  if (slot != 0) return slot - 1;
  const std::optional<Twin> twin = Twin::from(word.str());
  if (twin.has_value() && twin_ids[twin->id()] != 0) {
    slot = twin_ids[twin->id()];
    return slot - 1;
  }
  const std::uint64_t id = next_id_++;
  slot = id + 1;
  if (twin.has_value()) twin_ids[twin->id()] = slot;
  // Stage in a dedicated buffer: append_event interns while an event
  // record is half-built in payload_.
  intern_scratch_.clear();
  intern_scratch_ += static_cast<char>(kTagIntern);
  append_varint(intern_scratch_, id);
  intern_scratch_ += word.str();
  append_varint(out, intern_scratch_.size());
  out += intern_scratch_;
  return id;
}

void SegmentEncoder::append_event(const TraceEvent& ev, std::string& out) {
  // Intern records must precede the event record that references them.
  const std::uint64_t name_id =
      wire_id<AttrKey>(ev.name, name_ids_, key_ids_, out);
  // Attr key ids are at most a handful per event; resolve them up front into
  // a small stack array so the event payload is built in one pass.
  payload_.clear();
  payload_ += static_cast<char>(kTagEvent);
  append_f64le(payload_, ev.time);
  append_varint(payload_, zigzag(ev.node));
  payload_ += static_cast<char>(static_cast<std::uint8_t>(ev.category));
  payload_ += ev.phase;
  append_varint(payload_, name_id);
  append_varint(payload_, ev.flow);
  append_varint(payload_, ev.attrs.size());
  for (const Attr& a : ev.attrs) {
    // Interning appends to `out`, never to payload_, so staging stays
    // intact.
    append_varint(payload_,
                  wire_id<EventName>(a.key, key_ids_, name_ids_, out));
    if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
      payload_ += static_cast<char>(kAttrInt);
      append_varint(payload_, zigzag(*i));
    } else if (const auto* u = std::get_if<std::uint64_t>(&a.value)) {
      payload_ += static_cast<char>(kAttrUint);
      append_varint(payload_, *u);
    } else if (const auto* d = std::get_if<double>(&a.value)) {
      payload_ += static_cast<char>(kAttrDouble);
      append_f64le(payload_, *d);
    } else {
      const std::string_view s = std::get<AttrCode>(a.value).str();
      payload_ += static_cast<char>(kAttrString);
      append_varint(payload_, s.size());
      payload_ += s;
    }
  }
  append_varint(out, payload_.size());
  out += payload_;
}

void SegmentEncoder::append_footer(std::string& out, std::uint64_t event_count,
                                   std::uint32_t crc) {
  std::string payload;
  payload += static_cast<char>(kTagFooter);
  append_varint(payload, event_count);
  for (int i = 0; i < 4; ++i) {
    payload += static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  append_varint(out, payload.size());
  out += payload;
}

SegmentReader::SegmentReader(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open " + path_);
  }
  char fixed[kHeaderFixedBytes];
  if (!read_exact(fixed, sizeof fixed)) {
    // A segment cut before its header even landed: truncation, not a format
    // error — the rest of the capture is still worth reading.
    truncated("segment shorter than its header");
    return;
  }
  if (std::memcmp(fixed, kMagic, sizeof kMagic) != 0) {
    throw std::runtime_error(path_ + ": not a wtr trace (bad magic)");
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(fixed[4])) |
      static_cast<std::uint16_t>(static_cast<std::uint8_t>(fixed[5])) << 8;
  if (version != kVersion) {
    throw std::runtime_error(path_ + ": unsupported wtr version " +
                             std::to_string(version) + " (reader supports " +
                             std::to_string(kVersion) + ")");
  }
  crc_.update(fixed, sizeof fixed);
  // Header tail: varint segment index.
  std::uint64_t idx = 0;
  for (int shift = 0;; shift += 7) {
    char b;
    if (shift >= 64 || !read_exact(&b, 1)) {
      truncated("segment header truncated");
      return;
    }
    crc_.update(&b, 1);
    idx |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b) & 0x7f)
           << shift;
    if ((static_cast<std::uint8_t>(b) & 0x80) == 0) break;
  }
  segment_index_ = idx;
}

SegmentReader::~SegmentReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool SegmentReader::read_exact(char* dst, std::size_t n) {
  const std::size_t got = std::fread(dst, 1, n, file_);
  bytes_read_ += got;
  return got == n;
}

void SegmentReader::truncated(const std::string& why) {
  end_ = SegmentEnd::kTruncated;
  finding_ = path_ + ": truncated after " + std::to_string(events_read_) +
             " event(s): " + why;
  done_ = true;
}

void SegmentReader::corrupt(const std::string& why) {
  end_ = SegmentEnd::kCorrupt;
  finding_ = path_ + ": corrupt after " + std::to_string(events_read_) +
             " event(s): " + why;
  done_ = true;
}

bool SegmentReader::read_record() {
  // Length prefix, byte by byte (it feeds the CRC only for non-footer
  // records, so stage it).
  char prefix[10];
  std::size_t prefix_len = 0;
  std::uint64_t len = 0;
  for (int shift = 0;; shift += 7) {
    char b;
    if (!read_exact(&b, 1)) {
      if (prefix_len == 0) {
        truncated("segment ends without a footer");
      } else {
        truncated("unexpected end of file inside a record length");
      }
      return false;
    }
    prefix[prefix_len++] = b;
    if (shift >= 64 || prefix_len > sizeof prefix) {
      corrupt("record length varint too long");
      return false;
    }
    len |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(b) & 0x7f)
           << shift;
    if ((static_cast<std::uint8_t>(b) & 0x80) == 0) break;
  }
  if (len == 0 || len > (1u << 28)) {
    corrupt("implausible record length " + std::to_string(len));
    return false;
  }
  // Read in bounded chunks: a corrupt length prefix may claim far more
  // bytes than the file holds, and the buffer only grows with what is read.
  constexpr std::size_t kChunk = 1 << 16;
  payload_.clear();
  while (payload_.size() < len) {
    const std::size_t at = payload_.size();
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        len - at, kChunk));
    payload_.resize(at + n);
    if (!read_exact(payload_.data() + at, n)) {
      truncated("unexpected end of file inside a record");
      return false;
    }
  }
  const auto tag = static_cast<std::uint8_t>(payload_[0]);
  if (tag != kTagFooter) {
    // The footer's CRC covers everything before the footer record itself.
    crc_.update(prefix, prefix_len);
    crc_.update(payload_);
  }
  return true;
}

bool SegmentReader::next(TraceEvent& ev) {
  while (!done_) {
    const std::uint32_t crc_before_record = crc_.value();
    if (!read_record()) return false;
    try {
      Cursor c{payload_};
      const std::uint8_t tag = c.u8();
      if (tag == kTagIntern) {
        const std::uint64_t id = c.varint();
        if (id != table_.size()) {
          corrupt("intern id " + std::to_string(id) + " out of order");
          return false;
        }
        const std::string_view text = c.rest();
        table_.push_back(
            {std::string(text), EventName::from(text), AttrKey::from(text)});
        continue;
      }
      if (tag == kTagEvent) {
        ev.time = c.f64();
        ev.node = unzigzag(c.varint());
        const std::uint8_t cat = c.u8();
        if (cat >= kCategoryCount) {
          corrupt("bad category " + std::to_string(cat));
          return false;
        }
        ev.category = static_cast<Category>(cat);
        ev.phase = static_cast<char>(c.u8());
        const std::uint64_t name_id = c.varint();
        if (name_id >= table_.size()) {
          corrupt("name id " + std::to_string(name_id) + " not interned");
          return false;
        }
        const Interned& name = table_[static_cast<std::size_t>(name_id)];
        if (!name.name.has_value()) {
          corrupt("unknown event name: " + name.text);
          return false;
        }
        ev.name = *name.name;
        ev.flow = c.varint();
        const std::uint64_t nattrs = c.varint();
        if (nattrs > AttrList::kCapacity) {
          corrupt(std::to_string(nattrs) + " attributes, more than " +
                  std::to_string(AttrList::kCapacity));
          return false;
        }
        ev.attrs.clear();
        for (std::uint64_t i = 0; i < nattrs; ++i) {
          const std::uint64_t key_id = c.varint();
          if (key_id >= table_.size()) {
            corrupt("attr key id " + std::to_string(key_id) + " not interned");
            return false;
          }
          const Interned& key = table_[static_cast<std::size_t>(key_id)];
          if (!key.key.has_value()) {
            corrupt("unknown attribute key: " + key.text);
            return false;
          }
          Attr a;
          a.key = *key.key;
          switch (c.u8()) {
            case kAttrInt: a.value = unzigzag(c.varint()); break;
            case kAttrUint: a.value = c.varint(); break;
            case kAttrDouble: a.value = c.f64(); break;
            case kAttrString: {
              const std::string_view text = c.bytes(c.varint());
              const std::optional<AttrCode> code = AttrCode::from(text);
              if (!code.has_value()) {
                corrupt("unknown attribute value: " + std::string(text));
                return false;
              }
              a.value = *code;
              break;
            }
            default:
              corrupt("bad attr kind");
              return false;
          }
          ev.attrs.push_back(a);
        }
        if (!c.at_end()) {
          corrupt("trailing bytes in event record");
          return false;
        }
        ++events_read_;
        return true;
      }
      if (tag == kTagFooter) {
        const std::uint64_t count = c.varint();
        std::uint32_t stored = 0;
        for (int i = 0; i < 4; ++i) {
          stored |= static_cast<std::uint32_t>(c.u8()) << (8 * i);
        }
        if (count != events_read_) {
          corrupt("footer counts " + std::to_string(count) + " event(s), " +
                  std::to_string(events_read_) + " decoded");
          return false;
        }
        if (stored != crc_before_record) {
          corrupt("footer crc mismatch");
          return false;
        }
        char extra;
        if (read_exact(&extra, 1)) {
          corrupt("trailing data after the footer");
          return false;
        }
        done_ = true;
        return false;
      }
      corrupt("unknown record tag " + std::to_string(tag));
      return false;
    } catch (const std::runtime_error& e) {
      corrupt(e.what());
      return false;
    }
  }
  return false;
}

}  // namespace wsn::obs::wtr
