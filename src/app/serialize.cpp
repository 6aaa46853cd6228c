#include "app/serialize.h"

#include <limits>
#include <stdexcept>
#include <string>

namespace wsn::app {
namespace detail {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(std::span<const std::uint8_t> bytes,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos >= bytes.size()) {
      throw std::runtime_error("decode_summary: truncated varint");
    }
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) throw std::runtime_error("decode_summary: varint overflow");
  }
  return v;
}

namespace {

void put_edge(std::vector<std::uint8_t>& out,
              std::span<const BoundaryLabel> edge) {
  // Run-length encoding: (label, run) pairs. Boundary labels are small and
  // runs of background/one region dominate real fields.
  std::size_t i = 0;
  put_varint(out, edge.size());
  while (i < edge.size()) {
    std::size_t j = i;
    while (j < edge.size() && edge[j] == edge[i]) ++j;
    put_varint(out, edge[i]);
    put_varint(out, j - i);
    i = j;
  }
}

/// Reads a width or height, which must fit its 32-bit field.
std::uint32_t get_extent(std::span<const std::uint8_t> bytes,
                         std::size_t& pos) {
  const std::uint64_t v = get_varint(bytes, pos);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("decode_summary: extent out of range");
  }
  return static_cast<std::uint32_t>(v);
}

/// Reads one edge of `expected` labels (the extent's width or height) into
/// the empty `edge`. The edge grows only by the runs it has read, so an
/// extent that the bytes claim but do not hold allocates nothing.
void get_edge(std::span<const std::uint8_t> bytes, std::size_t& pos,
              std::uint32_t expected, BlockSummary::Edge& edge) {
  const std::uint64_t len = get_varint(bytes, pos);
  if (len != expected) {
    throw std::runtime_error(
        "decode_summary: edge length does not match the extent");
  }
  while (edge.size() < len) {
    const auto label = static_cast<BoundaryLabel>(get_varint(bytes, pos));
    const std::uint64_t run = get_varint(bytes, pos);
    if (run == 0 || edge.size() + run > len) {
      throw std::runtime_error("decode_summary: bad run length");
    }
    edge.resize(edge.size() + run, label);
  }
}

void put_bounds(std::vector<std::uint8_t>& out, const GridBounds& b) {
  put_varint(out, zigzag(b.row_min));
  put_varint(out, zigzag(b.col_min));
  put_varint(out, zigzag(b.row_max));
  put_varint(out, zigzag(b.col_max));
}

GridBounds get_bounds(std::span<const std::uint8_t> bytes, std::size_t& pos) {
  GridBounds b;
  b.row_min = static_cast<std::int32_t>(unzigzag(get_varint(bytes, pos)));
  b.col_min = static_cast<std::int32_t>(unzigzag(get_varint(bytes, pos)));
  b.row_max = static_cast<std::int32_t>(unzigzag(get_varint(bytes, pos)));
  b.col_max = static_cast<std::int32_t>(unzigzag(get_varint(bytes, pos)));
  return b;
}

}  // namespace
}  // namespace detail

std::vector<std::uint8_t> encode_summary(const BlockSummary& s) {
  using detail::put_varint;
  using detail::zigzag;
  std::vector<std::uint8_t> out;
  out.reserve(16 + s.width / 2 + s.height / 2 + 8 * s.open.size() +
              8 * s.closed.size());
  put_varint(out, zigzag(s.row0));
  put_varint(out, zigzag(s.col0));
  put_varint(out, s.width);
  put_varint(out, s.height);
  detail::put_edge(out, s.north);
  detail::put_edge(out, s.south);
  detail::put_edge(out, s.west);
  detail::put_edge(out, s.east);
  put_varint(out, s.open.size());
  for (std::size_t i = 0; i < s.open.size(); ++i) {
    put_varint(out, i + 1);  // the region's label
    put_varint(out, s.open[i].area);
    detail::put_bounds(out, s.open[i].bounds);
  }
  put_varint(out, s.closed.size());
  for (const RegionInfo& info : s.closed) {
    put_varint(out, info.area);
    detail::put_bounds(out, info.bounds);
  }
  return out;
}

BlockSummary decode_summary(std::span<const std::uint8_t> bytes) {
  using detail::get_varint;
  using detail::unzigzag;
  std::size_t pos = 0;
  BlockSummary s;
  s.row0 = static_cast<std::int32_t>(unzigzag(get_varint(bytes, pos)));
  s.col0 = static_cast<std::int32_t>(unzigzag(get_varint(bytes, pos)));
  s.width = detail::get_extent(bytes, pos);
  s.height = detail::get_extent(bytes, pos);
  detail::get_edge(bytes, pos, s.width, s.north);
  detail::get_edge(bytes, pos, s.width, s.south);
  detail::get_edge(bytes, pos, s.height, s.west);
  detail::get_edge(bytes, pos, s.height, s.east);
  const std::uint64_t open_count = get_varint(bytes, pos);
  for (std::uint64_t i = 0; i < open_count; ++i) {
    // Open regions are stored in label order, 1..k.
    if (get_varint(bytes, pos) != i + 1) {
      throw std::runtime_error(
          "decode_summary: open labels not 1..k in order");
    }
    RegionInfo info;
    info.area = get_varint(bytes, pos);
    info.bounds = detail::get_bounds(bytes, pos);
    s.open.push_back(info);
  }
  const std::uint64_t closed_count = get_varint(bytes, pos);
  for (std::uint64_t i = 0; i < closed_count; ++i) {
    RegionInfo info;
    info.area = get_varint(bytes, pos);
    info.bounds = detail::get_bounds(bytes, pos);
    s.closed.push_back(info);
  }
  if (pos != bytes.size()) {
    throw std::runtime_error("decode_summary: trailing bytes");
  }
  try {
    s.validate();
  } catch (const std::logic_error& e) {
    throw std::runtime_error(std::string("decode_summary: ") + e.what());
  }
  return s;
}

std::size_t encoded_size(const BlockSummary& summary) {
  return encode_summary(summary).size();
}

}  // namespace wsn::app
