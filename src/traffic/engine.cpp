// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "traffic/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace dl::traffic {

double TenantStats::row_hit_rate() const {
  return granted > 0 ? static_cast<double>(row_hits) /
                           static_cast<double>(granted)
                     : 0.0;
}

std::uint64_t LatencyHistogram::rank_index(double q, std::uint64_t n) {
  // Nearest rank, not a floored index: a floored index would report the
  // *minimum* as p99 of two samples.
  const double rank = std::ceil(q * static_cast<double>(n));
  if (!(rank >= 1.0)) return 0;
  if (rank >= static_cast<double>(n)) return n - 1;
  return static_cast<std::uint64_t>(rank) - 1;
}

namespace {

/// LSD radix sort over the bytes in which the samples differ (offset from
/// the minimum), so a run's samples sort in a few linear passes — latency
/// ranges rarely span more than three bytes.
void radix_sort(std::vector<Picoseconds>& samples) {
  if (samples.size() < 2) return;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  const auto base = static_cast<std::uint64_t>(*lo);
  const std::uint64_t range = static_cast<std::uint64_t>(*hi) - base;
  std::vector<Picoseconds> scratch(samples.size());
  for (unsigned shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
    const auto digit = [&](Picoseconds v) {
      return ((static_cast<std::uint64_t>(v) - base) >> shift) & 0xFF;
    };
    std::array<std::size_t, 256> start{};
    for (const Picoseconds v : samples) ++start[digit(v)];
    std::size_t offset = 0;
    for (std::size_t& s : start) offset += std::exchange(s, offset);
    for (const Picoseconds v : samples) scratch[start[digit(v)]++] = v;
    samples.swap(scratch);
  }
}

}  // namespace

LatencyHistogram LatencyHistogram::fold(std::vector<Picoseconds> samples) {
  radix_sort(samples);
  LatencyHistogram h;
  h.samples_ = samples.size();
  for (const Picoseconds v : samples) {
    if (h.bins_.empty() || h.bins_.back().value != v) {
      h.bins_.push_back({v, 0});
    }
    ++h.bins_.back().count;
  }
  return h;
}

LatencyHistogram LatencyHistogram::from_bins(std::vector<Bin> bins) {
  LatencyHistogram h;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    DL_REQUIRE(bins[i].count > 0, "latency histogram: bin with zero count");
    DL_REQUIRE(i == 0 || bins[i].value > bins[i - 1].value,
               "latency histogram: bin values must strictly ascend");
    DL_REQUIRE(bins[i].count <=
                   std::numeric_limits<std::uint64_t>::max() - h.samples_,
               "latency histogram: sample total overflows");
    h.samples_ += bins[i].count;
  }
  h.bins_ = std::move(bins);
  return h;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  std::vector<Bin> out;
  out.reserve(bins_.size() + other.bins_.size());
  auto a = bins_.cbegin();
  auto b = other.bins_.cbegin();
  while (a != bins_.cend() && b != other.bins_.cend()) {
    if (a->value < b->value) {
      out.push_back(*a++);
    } else if (b->value < a->value) {
      out.push_back(*b++);
    } else {
      out.push_back({a->value, a->count + b->count});
      ++a;
      ++b;
    }
  }
  out.insert(out.end(), a, bins_.cend());
  out.insert(out.end(), b, other.bins_.cend());
  bins_ = std::move(out);
  samples_ += other.samples_;
}

Picoseconds LatencyHistogram::quantile(double q) const {
  if (empty()) return 0;
  const std::uint64_t idx = rank_index(q, samples_);
  std::uint64_t covered = 0;
  for (const Bin& b : bins_) {
    covered += b.count;
    if (covered > idx) return b.value;
  }
  return bins_.back().value;  // unreachable: the counts sum to samples_
}

Picoseconds TenantStats::latency_quantile(double q) const {
  return queue_latency.quantile(q);
}

void TenantStats::merge(const TenantStats& other) {
  dl::fields::merge(*this, other);
  queue_latency.merge(other.queue_latency);
}

TrafficEngine::TrafficEngine(dl::dram::Controller& ctrl,
                             std::vector<StreamSpec> tenants,
                             const SchedulerConfig& scheduler,
                             const AdmissionSpec& admission)
    : ctrl_(ctrl), scheduler_(ctrl, scheduler), admission_(admission) {
  DL_REQUIRE(!tenants.empty(), "traffic engine needs at least one tenant");
  DL_REQUIRE(tenants.size() <= 0xFFFF, "too many tenants");
  streams_.reserve(tenants.size());
  stats_.resize(tenants.size());
  retry_count_.resize(tenants.size(), 0);
  deadline_.resize(tenants.size(), 0);
  slo_p99_.resize(tenants.size(), 0);
  latency_.resize(tenants.size());
  within_slo_.resize(tenants.size(), 0);
  shedding_.resize(tenants.size(), 0);
  verdict_samples_.resize(tenants.size(), 0);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name.empty()) {
      // Built with append rather than operator+ chains: GCC 12's -Wrestrict
      // fires a false positive (PR 105651) on `"lit" + std::string&&`.
      std::string name = "t";
      name += std::to_string(i);
      name += '/';
      name += to_string(tenants[i].kind);
      tenants[i].name = std::move(name);
    }
    streams_.emplace_back(tenants[i], static_cast<std::uint16_t>(i), ctrl_);
    stats_[i].name = tenants[i].name;
    stats_[i].kind = tenants[i].kind;
    stats_[i].admission = admission_.enabled;
    deadline_[i] = tenants[i].deadline;
    slo_p99_[i] = tenants[i].slo_p99;
    // Every declared request is eventually serviced and records one
    // latency sample; reserving up front keeps the drain loop free of
    // reallocation growth.
    latency_[i].reserve(static_cast<std::size_t>(tenants[i].requests));
  }
}

void TrafficEngine::record(const Serviced& s) {
  const std::size_t i = s.req.tenant;
  TenantStats& t = stats_[i];
  if (s.result.granted) {
    ++t.granted;
    if (s.req.bytes == 0) {
      ++t.hammer_acts;
    } else if (s.req.is_write) {
      ++t.writes;
      t.data_bytes += s.req.bytes;
    } else {
      ++t.reads;
      t.data_bytes += s.req.bytes;
    }
    if (s.result.row_hit) ++t.row_hits;
  } else {
    ++t.denied;
  }
  t.service_time += s.result.latency;
  const Picoseconds latency = s.completed_at - s.req.enqueued_at;
  latency_[i].push_back(latency);
  if (latency <= slo_p99_[i]) ++within_slo_[i];
  if (admission_.enabled && deadline_[i] > 0 && latency > deadline_[i]) {
    ++t.deadline_misses;
  }
  ++serviced_;
  if (data_sink_ && !s.data.empty()) data_sink_(s);
}

bool TrafficEngine::should_shed(std::size_t i) {
  if (!admission_.enabled || slo_p99_[i] == 0) return false;
  const std::size_t n = latency_[i].size();
  if (n < admission_.min_latency_samples) return false;
  // The verdict advances every kP99Stride completions, which is fresh
  // enough for load shedding (an SLO breach persists across strides).
  // The nearest-rank p99 exceeds the SLO exactly when fewer samples than
  // its rank lie within the SLO.
  if (n - verdict_samples_[i] >= kP99Stride || verdict_samples_[i] == 0) {
    shedding_[i] =
        n > 0 && within_slo_[i] < LatencyHistogram::rank_index(0.99, n) + 1;
    verdict_samples_[i] = n;
  }
  return shedding_[i] != 0;
}

TrafficReport TrafficEngine::run() {
  const Picoseconds start = ctrl_.now();
  const auto sink = [this](const Serviced& s) { record(s); };
  bool work = true;
  while (work) {
    work = false;
    // Injection phase: fixed tenant order; a full bank queue stalls that
    // tenant for the rest of the round (head-of-line, like a real per-core
    // request buffer).  Without admission control the request is never
    // dropped; with it, shedding and retry budgets pop requests under
    // explicit accounting so nothing is ever lost silently
    // (spec.requests == issued + shed + failed).
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      Stream& stream = streams_[i];
      for (std::uint32_t b = 0; b < stream.spec().burst; ++b) {
        auto req = stream.peek();
        if (!req.has_value()) break;
        if (should_shed(i)) {
          // SLO breach: shed at admission instead of deepening the queue.
          ++stats_[i].shed;
          retry_count_[i] = 0;
          stream.pop();
          work = true;
          continue;
        }
        req->seq = next_seq_;
        if (!scheduler_.try_enqueue(*req)) {
          ++stats_[i].rejected_enqueues;
          if (!admission_.enabled) break;
          if (++retry_count_[i] > admission_.retry_budget) {
            // Retry budget exhausted: fail the request explicitly.
            ++stats_[i].failed;
            retry_count_[i] = 0;
            stream.pop();
            work = true;
            continue;
          }
          ++stats_[i].retried;
          if (admission_.retry_backoff > 0) {
            ctrl_.advance_time(admission_.retry_backoff);
          }
          break;  // back-pressure: stall the tenant for this round
        }
        ++next_seq_;
        ++stats_[i].issued;
        retry_count_[i] = 0;
        stream.pop();
        work = true;
      }
    }
    if (scheduler_.drain_pass(sink) > 0) work = true;
  }
  scheduler_.drain_all(sink);
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    stats_[i].queue_latency.merge(
        LatencyHistogram::fold(std::exchange(latency_[i], {})));
  }

  TrafficReport report;
  report.tenants = stats_;
  report.serviced = serviced_;
  report.elapsed = ctrl_.now() - start;
  return report;
}

// ------------------------------------------------------------------ reports

dl::json::Value to_json(const TenantStats& t, Picoseconds elapsed) {
  auto v = dl::json::Value::object();
  v["name"] = t.name;
  v["kind"] = to_string(t.kind);
  v["issued"] = t.issued;
  v["granted"] = t.granted;
  v["denied"] = t.denied;
  v["rejected_enqueues"] = t.rejected_enqueues;
  v["reads"] = t.reads;
  v["writes"] = t.writes;
  v["hammer_acts"] = t.hammer_acts;
  v["row_hits"] = t.row_hits;
  v["row_hit_rate"] = t.row_hit_rate();
  v["data_bytes"] = t.data_bytes;
  v["service_time_ps"] = t.service_time;
  auto lat = dl::json::Value::object();
  lat["p50_ns"] = to_nanoseconds(t.latency_quantile(0.50));
  lat["p95_ns"] = to_nanoseconds(t.latency_quantile(0.95));
  lat["p99_ns"] = to_nanoseconds(t.latency_quantile(0.99));
  v["queue_latency"] = std::move(lat);
  if (t.kind == StreamKind::kHammer) {
    const double secs = to_seconds(elapsed);
    v["acts_per_sec"] =
        secs > 0.0 ? static_cast<double>(t.hammer_acts) / secs : 0.0;
  }
  if (t.kind == StreamKind::kScrub) {
    const double secs = to_seconds(elapsed);
    v["scrub_bandwidth_bytes_per_sec"] =
        secs > 0.0 ? static_cast<double>(t.data_bytes) / secs : 0.0;
  }
  if (t.admission) {
    // Emitted only for admission-controlled runs so reports without the
    // feature stay byte-identical to earlier releases.
    auto a = dl::json::Value::object();
    a["retried"] = t.retried;
    a["shed"] = t.shed;
    a["failed"] = t.failed;
    a["deadline_misses"] = t.deadline_misses;
    v["admission"] = std::move(a);
  }
  return v;
}

}  // namespace dl::traffic
