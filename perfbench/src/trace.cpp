#include "trace.hpp"

#include <fstream>
#include <map>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(const std::string& layer, const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.campaign = campaign_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

std::int64_t Tracer::end(int id) {
  if (id < 0) return 0;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  return s.end_ns - s.start_ns;
}

std::vector<Tracer::LayerSummary> Tracer::summary() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerSummary> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerSummary& l = by_layer[s.layer];
    l.layer = s.layer;
    ++l.count;
    const double dur_ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    l.self_ms += dur_ms - static_cast<double>(child_ns[i]) * 1e-6;
    // Busy time counts a span only when no enclosing span has its layer,
    // so nested same-layer spans are not double counted.
    bool nested = false;
    for (int p = s.parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
      if (spans_[static_cast<std::size_t>(p)].layer == s.layer) {
        nested = true;
        break;
      }
    }
    if (!nested) l.busy_ms += dur_ms;
  }
  std::vector<LayerSummary> out;
  for (auto& [name, l] : by_layer) out.push_back(l);
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  dl::json::Value events = dl::json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    dl::json::Value e = dl::json::Value::object();
    e["name"] = s.name;
    e["cat"] = s.layer;
    e["ph"] = "X";
    e["ts"] = static_cast<double>(s.start_ns) * 1e-3;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    e["pid"] = 1;
    e["tid"] = 1;
    dl::json::Value args = dl::json::Value::object();
    args["id"] = i;
    args["parent"] = s.parent;
    args["campaign"] = s.campaign;
    args["start_ns"] = s.start_ns;
    args["end_ns"] = s.end_ns;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  dl::json::Value doc = dl::json::Value::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << doc.dump() << '\n';
}

}  // namespace perfbench
