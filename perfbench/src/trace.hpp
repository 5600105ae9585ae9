// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around calls into the
// library's public functions ("outside in"): the library itself carries no
// hooks.  Every span has a name, a layer (the src/ module it measures), a
// start and end on the steady clock, its parent span and a campaign id.
// Spans stay in memory until write_chrome_trace() is called at exit.
//
// Only the driving thread records spans; the library's worker threads run
// inside them, so nesting is a plain stack.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its id, or -1 when tracing is off.
  int begin(const std::string& layer, const std::string& name);
  /// Closes the span `id` (must be the innermost open span); returns its
  /// duration in nanoseconds (0 when tracing is off).
  std::int64_t end(int id);

  /// Campaign id stamped on spans opened from now on (0 = none).
  void set_campaign(int campaign) { campaign_ = campaign; }

  struct LayerSummary {
    std::string layer;
    std::size_t count = 0;
    double busy_ms = 0.0;  ///< wall covered by the layer's outermost spans
    double self_ms = 0.0;  ///< span time not covered by child spans
  };
  [[nodiscard]] std::vector<LayerSummary> summary() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int campaign = 0;
  };

  bool enabled_;
  int campaign_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;

  [[nodiscard]] std::int64_t now_ns() const;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& layer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(layer, name)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
