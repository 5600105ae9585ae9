// Multi-tenant DRAM traffic engine.
//
// The engine interleaves N tenant streams through the per-bank FR-FCFS
// scheduler in rounds: each round every tenant injects up to its burst of
// requests (skipping tenants whose target bank queue is full), then one
// drain pass services up to `batch` requests per bank.  The round structure
// is what creates *contention*: with more than one tenant the bank queues
// hold interleaved requests and the scheduler's policy decides who wins
// the row buffer.
//
// Everything is deterministic — fixed tenant order, fixed bank walk,
// tenant-private RNG streams — so campaigns that embed an engine can be
// fanned out over dl::parallel with bit-identical results for any
// DL_THREADS value.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "common/json.hpp"
#include "traffic/frfcfs.hpp"
#include "traffic/stream.hpp"

namespace dl::traffic {

/// Admission-control policy for one engine run (scenario::TrafficSpec
/// carries it into serve campaigns).  Disabled (the default) reproduces
/// the pre-admission engine byte-for-byte: rejected enqueues stall the
/// tenant head-of-line and retry forever, nothing is shed or failed.
struct AdmissionSpec {
  bool enabled = false;
  /// Consecutive enqueue rejections tolerated per request before the
  /// request is failed (popped with explicit accounting, never silently).
  std::uint32_t retry_budget = 8;
  /// Simulated protocol time charged per rejected enqueue before the
  /// retry — deterministic backoff on the controller clock.
  Picoseconds retry_backoff = 0;
  /// Latency samples required before a tenant's p99 is trusted for
  /// SLO-based shedding (cold-start guard).
  std::uint32_t min_latency_samples = 16;
};

/// Exact queue-latency distribution: (value, count) bins in strictly
/// ascending value order, every count positive, plus the sample total.
/// Memory scales with the number of distinct latencies, not requests;
/// merging two histograms is a linear merge of their bin lists, and every
/// quantile equals the nearest-rank percentile of the raw samples, so
/// stats merged across cycles, rounds and channels stay exact.
class LatencyHistogram {
 public:
  struct Bin {
    Picoseconds value = 0;
    std::uint64_t count = 0;
    friend bool operator==(const Bin&, const Bin&) = default;
  };

  LatencyHistogram() = default;
  /// Folds raw samples given in any order.
  [[nodiscard]] static LatencyHistogram fold(std::vector<Picoseconds> samples);
  /// Adopts bins from outside the engine (a journal line); throws dl::Error
  /// unless values strictly ascend, every count is positive and the total
  /// fits in 64 bits.
  [[nodiscard]] static LatencyHistogram from_bins(std::vector<Bin> bins);

  /// 0-based nearest-rank index of the q-quantile among n > 0 sorted
  /// samples: min(ceil(q*n), n) - 1, clamped at 0.
  [[nodiscard]] static std::uint64_t rank_index(double q, std::uint64_t n);

  /// Adds `other`'s samples.
  void merge(const LatencyHistogram& other);
  /// Nearest-rank percentile (q in [0,1]): the smallest sample covering a
  /// q-fraction of the set; 0 when empty.
  [[nodiscard]] Picoseconds quantile(double q) const;

  [[nodiscard]] std::uint64_t size() const { return samples_; }  ///< samples
  [[nodiscard]] bool empty() const { return samples_ == 0; }
  [[nodiscard]] const std::vector<Bin>& bins() const { return bins_; }

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  std::vector<Bin> bins_;
  std::uint64_t samples_ = 0;
};

/// Per-tenant outcome statistics.  Plain value type: safe to copy across
/// threads once a run completes; merge() is the only mutator campaigns
/// use (cycle accumulation, always on the owning thread).
struct TenantStats {
  std::string name;
  StreamKind kind = StreamKind::kSynthetic;
  std::uint64_t issued = 0;       ///< requests handed to the scheduler
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;       ///< blocked by the access gate
  /// Enqueue attempts refused on a full bank ring (back-pressure stalls;
  /// without admission control the request is retried next round, never
  /// dropped; with it, each rejection consumes retry budget).
  std::uint64_t rejected_enqueues = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t hammer_acts = 0;  ///< granted ACT-only requests
  std::uint64_t row_hits = 0;     ///< granted requests hitting an open row
  std::uint64_t data_bytes = 0;   ///< bytes moved by granted reads/writes
  Picoseconds service_time = 0;   ///< controller latency of own requests
  /// Queue latency (enqueue -> completion, simulated time) of every
  /// serviced request as an exact histogram: size() counts the samples,
  /// and percentiles of merged stats equal those of the pooled samples.
  LatencyHistogram queue_latency;

  // Admission-control outcomes (all zero — and the report block absent —
  // unless the engine ran with AdmissionSpec::enabled).
  bool admission = false;            ///< engine ran with admission control
  std::uint64_t retried = 0;         ///< enqueues retried after rejection
  std::uint64_t shed = 0;            ///< requests load-shed at injection
  std::uint64_t failed = 0;          ///< requests failed (retry budget dry)
  std::uint64_t deadline_misses = 0; ///< completions past spec.deadline

  [[nodiscard]] double row_hit_rate() const;
  /// queue_latency.quantile(q).
  [[nodiscard]] Picoseconds latency_quantile(double q) const;

  /// Accumulates another run of the same tenant (stats added, latency
  /// histograms merged).
  void merge(const TenantStats& other);

  /// Every member but `name`, `kind` and `queue_latency`, which the journal
  /// and the hand-written report block treat on their own.
  template <typename F>
  static void fields(F&& f) {
    f({"issued"}, &TenantStats::issued);
    f({"granted"}, &TenantStats::granted);
    f({"denied"}, &TenantStats::denied);
    f({"rejected_enqueues"}, &TenantStats::rejected_enqueues);
    f({"reads"}, &TenantStats::reads);
    f({"writes"}, &TenantStats::writes);
    f({"hammer_acts"}, &TenantStats::hammer_acts);
    f({"row_hits"}, &TenantStats::row_hits);
    f({"data_bytes"}, &TenantStats::data_bytes);
    f({"service_time"}, &TenantStats::service_time);
    f({"admission"}, &TenantStats::admission);
    f({"retried"}, &TenantStats::retried);
    f({"shed"}, &TenantStats::shed);
    f({"failed"}, &TenantStats::failed);
    f({"deadline_misses"}, &TenantStats::deadline_misses);
  }
};

/// Outcome of one engine run.
struct TrafficReport {
  std::vector<TenantStats> tenants;
  std::uint64_t serviced = 0;
  Picoseconds elapsed = 0;  ///< controller time consumed by the run
};

/// `elapsed` scales the attacker ACT-throughput figure; pass the campaign
/// total when reporting merged cycles.
[[nodiscard]] dl::json::Value to_json(const TenantStats& t,
                                      Picoseconds elapsed);

/// Thread safety: none — an engine owns one controller's request flow for
/// the duration of run().  Determinism: with fixed tenant specs the full
/// service order, all statistics, and every byte moved are identical on
/// any machine and any DL_THREADS value (the engine itself never uses the
/// parallel pool; campaigns fan out *around* engines, not inside them).
class TrafficEngine {
 public:
  /// Observer of granted data reads, called after statistics are recorded.
  /// `Serviced::data` views scheduler scratch — valid only during the
  /// call.  Integrity scrubbers subscribe here to verify scrub chunks
  /// (src/integrity/scrubber.hpp) while their reads stay tenant-accounted.
  using DataSink = std::function<void(const Serviced&)>;

  /// Tenant ids are positions in `tenants`; empty spec names default to
  /// "t<i>/<kind>".
  TrafficEngine(dl::dram::Controller& ctrl, std::vector<StreamSpec> tenants,
                const SchedulerConfig& scheduler = {},
                const AdmissionSpec& admission = {});

  /// Installs the single data-read observer (empty function clears it).
  /// The sink may issue its own controller traffic (e.g. recovery writes)
  /// but must not touch the engine or scheduler.
  void set_data_sink(DataSink sink) { data_sink_ = std::move(sink); }

  /// Runs every stream to exhaustion and drains the queues.
  TrafficReport run();

 private:
  dl::dram::Controller& ctrl_;
  FrFcfsScheduler scheduler_;
  std::vector<Stream> streams_;
  std::vector<TenantStats> stats_;
  AdmissionSpec admission_;
  DataSink data_sink_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t serviced_ = 0;
  /// Consecutive rejections of the current head request, per tenant.
  std::vector<std::uint32_t> retry_count_;
  /// Per-tenant deadline / SLO copied from the spec (stats stay pure
  /// outcome counters).
  std::vector<Picoseconds> deadline_;
  std::vector<Picoseconds> slo_p99_;
  /// This run's raw latency samples per tenant, folded into
  /// TenantStats::queue_latency when run() drains.
  std::vector<std::vector<Picoseconds>> latency_;
  /// Samples <= slo_p99 per tenant: the p99 breaches the SLO exactly when
  /// this count is below the p99's rank, so shedding needs no sort.
  std::vector<std::uint64_t> within_slo_;
  /// Shed verdict per tenant, refreshed every kP99Stride new samples, and
  /// the sample count it was taken at.
  std::vector<std::uint8_t> shedding_;
  std::vector<std::size_t> verdict_samples_;

  static constexpr std::size_t kP99Stride = 32;

  void record(const Serviced& s);
  /// True when admission control should shed tenant `i`'s next request.
  [[nodiscard]] bool should_shed(std::size_t i);
};

}  // namespace dl::traffic
