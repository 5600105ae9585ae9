// Streaming statistics and histograms for simulation reporting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dl {

/// Welford streaming mean/variance with min/max tracking.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;   ///< population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-range linear histogram.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return bins_.at(i); }
  [[nodiscard]] std::size_t bins() const { return bins_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }

  /// Value at quantile q in [0,1], linear interpolation within the bin.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::string to_string(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<std::size_t> bins_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace dl
