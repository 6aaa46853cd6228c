// Lightweight counters and statistics used across protocols and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace wsn::sim {

/// Named monotonic counters of one layer, e.g. "arq.send", "fd.beat".
/// The owning layer declares an enum of its counters and a static table of
/// their names, both in name order, so add() is one array increment with no
/// string, hash or allocation. Names are resolved only when read: get()
/// scans the table and all() lists the non-zero counters.
class CounterSet {
 public:
  /// `names` must outlive the set (a static table) and satisfy
  /// counter_table_ok.
  explicit CounterSet(std::span<const std::string_view> names)
      : names_(names), values_(names.size(), 0) {}

  template <typename E>
    requires std::is_enum_v<E>
  void add(E counter, std::uint64_t delta = 1) {
    values_[static_cast<std::size_t>(counter)] += delta;
  }

  /// The counter called `name`; 0 if the table has no such name.
  std::uint64_t get(std::string_view name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return values_[i];
    }
    return 0;
  }

  /// The non-zero counters, in name order (exports, table output).
  std::vector<std::pair<std::string_view, std::uint64_t>> all() const {
    std::vector<std::pair<std::string_view, std::uint64_t>> out;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (values_[i] != 0) out.emplace_back(names_[i], values_[i]);
    }
    return out;
  }

 private:
  std::span<const std::string_view> names_;
  std::vector<std::uint64_t> values_;
};

/// True when `names` has one entry per value of `E` below `E::kCount` and
/// is strictly increasing, i.e. unique and in the order CounterSet::all()
/// lists it. Each counter table static_asserts this.
template <typename E, std::size_t N>
constexpr bool counter_table_ok(const std::string_view (&names)[N]) {
  if (N != static_cast<std::size_t>(E::kCount)) return false;
  for (std::size_t i = 1; i < N; ++i) {
    if (!(names[i - 1] < names[i])) return false;
  }
  return true;
}

/// Streaming summary statistics (Welford) plus min/max.
class Summary {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  double range() const { return n_ == 0 ? 0.0 : max_ - min_; }

  /// Coefficient of variation; the paper's "energy balance" concern is
  /// captured by this dimensionless spread measure.
  double cv() const { return mean() == 0.0 ? 0.0 : stddev() / mean(); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Computes a least-squares linear fit y = a + b*x; used by benches to check
/// scaling claims (e.g. steps linear in sqrt(N)).
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};

inline LinearFit fit_line(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  LinearFit f;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return f;
  double sx = 0;
  double sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0;
  double sxy = 0;
  double syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (xs[i] - mx) * (xs[i] - mx);
    sxy += (xs[i] - mx) * (ys[i] - my);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0) return f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.r2 = syy == 0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return f;
}

}  // namespace wsn::sim
