// Fixed-bucket histogram instrument.
//
// One implementation serves both live code (registered in MetricsRegistry,
// snapshotted as JSON with p50/p90/p95/p99) and offline trace analysis
// (obs/analyze builds latency/size distributions from parsed traces), so a
// percentile printed by `wsn-inspect hist` means exactly what the same
// percentile means in a metrics snapshot.
//
// Buckets are uniform over [lo, hi); values outside the range land in
// underflow/overflow counts (they still contribute to count/min/max, and
// percentiles clamp into the tracked range). Percentiles use linear
// interpolation within the bucket, the standard fixed-bucket estimator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace wsn::obs {

class Histogram {
 public:
  /// `buckets` uniform buckets over [lo, hi); both bounds finite, lo < hi.
  Histogram(double lo, double hi, std::size_t buckets = 32)
      : lo_(lo), hi_(hi), counts_(buckets, 0) {
    if (!(lo < hi) || buckets == 0) {
      throw std::invalid_argument("Histogram: need lo < hi and buckets >= 1");
    }
  }

  void add(double v) {
    ++count_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    sum_ += v;
    if (v < lo_) {
      ++underflow_;
    } else if (v >= hi_) {
      ++overflow_;
    } else {
      const auto i = static_cast<std::size_t>(
          (v - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size()));
      ++counts_[std::min(i, counts_.size() - 1)];
    }
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  const std::vector<std::uint64_t>& buckets() const { return counts_; }
  double bucket_width() const {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }

  /// Estimated p-quantile, p in [0, 1], clamped into [min(), max()].
  /// Underflow mass sits at lo, overflow mass at hi; within a bucket the
  /// mass is assumed uniform, which alone could place the estimate past the
  /// largest sample or below the smallest.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const double rank = p * static_cast<double>(count_);
    double seen = static_cast<double>(underflow_);
    if (rank <= seen) return min();  // all underflow mass sits below lo
    double estimate = hi_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double in_bucket = static_cast<double>(counts_[i]);
      if (rank <= seen + in_bucket) {
        const double frac = in_bucket == 0 ? 0.0 : (rank - seen) / in_bucket;
        estimate = lo_ + (static_cast<double>(i) + frac) * bucket_width();
        break;
      }
      seen += in_bucket;
    }
    return std::min(std::max(estimate, min_), max_);
  }

  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = underflow_ = overflow_ = 0;
    sum_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace wsn::obs
