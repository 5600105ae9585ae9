// Named metrics with units, and the small statistics the benchmark needs.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed next to the value (sample counts, sources)
};

/// Insertion-ordered metric list; setting a name twice overwrites it.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::string note = {}) {
    for (Metric& m : items_) {
      if (m.name == name) {
        m = Metric{name, value, unit, std::move(note)};
        return;
      }
    }
    items_.push_back(Metric{name, value, unit, std::move(note)});
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Median (mean of the middle pair for even sizes); 0 for an empty set.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Host seconds `fn` takes.
template <typename Fn>
double time_s(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::forward<Fn>(fn)();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
