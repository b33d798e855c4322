// Small statistics helpers used by the metric recorders and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace willow::util {

/// Streaming mean/variance/min/max (Welford's algorithm); O(1) memory.
class RunningStats {
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

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  RunningStats& operator+=(const RunningStats& o) {
    if (o.n_ == 0) return *this;
    if (n_ == 0) {
      *this = o;
      return *this;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta * na * nb / (na + nb);
    mean_ = (na * mean_ + nb * o.mean_) / (na + nb);
    n_ += o.n_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    return *this;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A recorded scalar time series: (t, value) samples in arrival order.
class TimeSeries {
 public:
  void record(double t, double value) {
    times_.push_back(t);
    values_.push_back(value);
    stats_.add(value);
  }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] const RunningStats& stats() const { return stats_; }

  [[nodiscard]] double at(std::size_t i) const { return values_.at(i); }
  [[nodiscard]] double last() const {
    if (values_.empty()) throw std::out_of_range("TimeSeries::last: empty");
    return values_.back();
  }

  /// Mean over samples with t in [t0, t1].
  [[nodiscard]] double mean_between(double t0, double t1) const {
    RunningStats s;
    for (std::size_t i = 0; i < times_.size(); ++i) {
      if (times_[i] >= t0 && times_[i] <= t1) s.add(values_[i]);
    }
    return s.mean();
  }

 private:
  std::vector<double> times_;
  std::vector<double> values_;
  RunningStats stats_;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
/// edge buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), counts_(buckets, 0) {
    if (!(hi > lo) || buckets == 0) {
      throw std::invalid_argument("Histogram: bad range or bucket count");
    }
  }

  void add(double x) {
    const double f = (x - lo_) / (hi_ - lo_);
    auto b = static_cast<std::ptrdiff_t>(f * static_cast<double>(counts_.size()));
    b = std::clamp<std::ptrdiff_t>(b, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(b)];
    ++total_;
  }

  [[nodiscard]] std::size_t count(std::size_t b) const { return counts_.at(b); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bucket_low(std::size_t b) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(b) /
                     static_cast<double>(counts_.size());
  }

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace willow::util
