// Wire serialization of boundary summaries.
//
// The cost model charges energy and latency per unit of data, so message
// sizes matter. The SummarySizeModel approximates them; this codec makes
// them exact: a BlockSummary is encoded into the byte layout a real
// implementation would transmit (varint-packed perimeter runs + region
// records), and the byte count feeds the cost model directly. The paper's
// compression argument - boundary descriptions shrink relative to raw data
// as blocks grow - becomes measurable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "app/boundary.h"

namespace wsn::app {

/// Encodes `summary` into a compact byte representation:
///   header: row0, col0 (zigzag varint), width, height (varint)
///   perimeter: run-length encoded labels in canonical scan order
///   open regions: label, area, bounds (varints), labels 1..k in order
///   closed regions: area, bounds (varints)
std::vector<std::uint8_t> encode_summary(const BlockSummary& summary);

/// Inverse of encode_summary. Throws std::runtime_error on malformed input:
/// a truncated or out-of-range field, an edge whose length is not the
/// extent's, open labels out of 1..k order, or a summary that fails
/// BlockSummary::validate(). Edge lengths are checked before any storage
/// is reserved for them.
BlockSummary decode_summary(std::span<const std::uint8_t> bytes);

/// Exact wire size in bytes.
std::size_t encoded_size(const BlockSummary& summary);

/// Message-size model backed by the codec: units = bytes / bytes_per_unit.
/// With bytes_per_unit = 16 (a small radio frame payload), a leaf summary
/// costs about one unit, aligning the exact model with the paper's
/// fixed-unit analysis at the leaves while letting interior messages grow
/// with true boundary complexity.
struct ExactSizeModel {
  double bytes_per_unit = 16.0;

  double units(const BlockSummary& s) const {
    return static_cast<double>(encoded_size(s)) / bytes_per_unit;
  }
};

namespace detail {

/// LEB128-style unsigned varint.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
std::uint64_t get_varint(std::span<const std::uint8_t> bytes, std::size_t& pos);

/// Zigzag mapping for signed values.
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace detail

}  // namespace wsn::app
