#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace dl {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bins_(bins, 0) {
  DL_REQUIRE(hi > lo, "histogram range must be non-empty");
  DL_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) *
                                          static_cast<double>(bins_.size()));
  bins_[std::min(i, bins_.size() - 1)] += 1;
}

double Histogram::quantile(double q) const {
  DL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  const double bin_w = (hi_ - lo_) / static_cast<double>(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cum + static_cast<double>(bins_[i]);
    if (next >= target && bins_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(bins_[i]);
      return lo_ + (static_cast<double>(i) + frac) * bin_w;
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::to_string(std::size_t width) const {
  std::ostringstream os;
  const std::size_t peak =
      *std::max_element(bins_.begin(), bins_.end());
  const double bin_w = (hi_ - lo_) / static_cast<double>(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double left = lo_ + static_cast<double>(i) * bin_w;
    const std::size_t bar =
        peak ? bins_[i] * width / peak : 0;
    os << "[" << left << ", " << left + bin_w << ") "
       << std::string(bar, '#') << " " << bins_[i] << "\n";
  }
  return os.str();
}

}  // namespace dl
