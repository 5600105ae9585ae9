// Counter-based RowHammer trackers (victim-focused baselines of Table I).
//
// Each tracker observes the physical activation stream and issues targeted
// victim refreshes through the controller when an aggressor's (estimated)
// activation count crosses the threshold.  They differ in how the count is
// stored:
//   TrrSampler     — probabilistic in-DRAM TRR (samples activations)
//   CounterPerRow  — one exact counter per row (32 MB of DRAM in Table I)
//   Graphene       — Misra-Gries frequent-item summary in CAM+SRAM
//   CounterTree    — hierarchical counters, refined on demand
//   Hydra          — SRAM group counters, falling back to per-row counters
//                    in DRAM once a group gets hot
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"

namespace dl::defense {

/// Refreshes every in-bounds row within `radius` of `aggressor` (targeted
/// mitigation).  Returns the number of refresh commands actually issued —
/// fewer than 2*radius when the aggressor sits at a subarray edge.
std::uint32_t refresh_neighbors(dl::dram::Controller& ctrl,
                                dl::dram::GlobalRowId aggressor,
                                std::uint32_t radius);

/// Shared statistics for all trackers.
struct TrackerStats {
  std::uint64_t observed_acts = 0;
  std::uint64_t mitigations = 0;      ///< aggressors neutralized
  std::uint64_t victim_refreshes = 0; ///< refresh commands issued

  template <typename F>
  static void fields(F&& f) {
    f({"observed_acts"}, &TrackerStats::observed_acts);
    f({"mitigations"}, &TrackerStats::mitigations);
    f({"victim_refreshes"}, &TrackerStats::victim_refreshes);
  }
};

/// Probabilistic Target-Row-Refresh: each activation is sampled with
/// probability p; a sampled row's neighbours are refreshed immediately.
class TrrSampler final : public dl::dram::ActivationListener {
 public:
  TrrSampler(dl::dram::Controller& ctrl, double sample_probability,
             std::uint32_t radius, dl::Rng rng);

  void on_activate(dl::dram::GlobalRowId row, Picoseconds now) override;

  [[nodiscard]] const TrackerStats& stats() const { return stats_; }

 private:
  dl::dram::Controller& ctrl_;
  double p_;
  std::uint32_t radius_;
  dl::Rng rng_;
  TrackerStats stats_;
};

/// Exact per-row activation counters.
class CounterPerRow final : public dl::dram::ActivationListener {
 public:
  CounterPerRow(dl::dram::Controller& ctrl, std::uint64_t threshold,
                std::uint32_t radius);

  void on_activate(dl::dram::GlobalRowId row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;
  void on_row_refresh(dl::dram::GlobalRowId row) override;

  [[nodiscard]] const TrackerStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t count(dl::dram::GlobalRowId row) const;

 private:
  dl::dram::Controller& ctrl_;
  std::uint64_t threshold_;
  std::uint32_t radius_;
  std::unordered_map<dl::dram::GlobalRowId, std::uint64_t> counts_;
  TrackerStats stats_;
};

/// Graphene-style Misra-Gries summary: tracks at most `entries` candidate
/// aggressors exactly; a spillover counter guarantees no aggressor can
/// exceed threshold undetected (Park et al., MICRO'20).
class Graphene final : public dl::dram::ActivationListener {
 public:
  Graphene(dl::dram::Controller& ctrl, std::uint64_t threshold,
           std::size_t entries, std::uint32_t radius);

  void on_activate(dl::dram::GlobalRowId row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;

  [[nodiscard]] const TrackerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t table_size() const { return table_.size(); }

 private:
  dl::dram::Controller& ctrl_;
  std::uint64_t threshold_;
  std::size_t entries_;
  std::uint32_t radius_;
  std::unordered_map<dl::dram::GlobalRowId, std::uint64_t> table_;
  std::uint64_t spill_ = 0;
  TrackerStats stats_;
};

/// Two-level counter tree: coarse group counters refine into exact per-row
/// counters once a group crosses half the threshold (Seyedzadeh et al.).
class CounterTree final : public dl::dram::ActivationListener {
 public:
  CounterTree(dl::dram::Controller& ctrl, std::uint64_t threshold,
              std::uint32_t group_rows, std::uint32_t radius);

  void on_activate(dl::dram::GlobalRowId row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;

  [[nodiscard]] const TrackerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t refined_groups() const { return fine_.size(); }

 private:
  dl::dram::Controller& ctrl_;
  std::uint64_t threshold_;
  std::uint32_t group_rows_;
  std::uint32_t radius_;
  std::unordered_map<std::uint64_t, std::uint64_t> coarse_;  // group -> count
  std::unordered_map<std::uint64_t,
                     std::unordered_map<dl::dram::GlobalRowId, std::uint64_t>>
      fine_;  // group -> per-row counts
  TrackerStats stats_;
};

/// Hydra: SRAM group counters; on a hot group, per-row counters materialize
/// in DRAM, charging extra latency per subsequent activation in that group
/// (Qureshi et al., ISCA'22).
class Hydra final : public dl::dram::ActivationListener {
 public:
  Hydra(dl::dram::Controller& ctrl, std::uint64_t threshold,
        std::uint32_t group_rows, std::uint32_t radius);

  void on_activate(dl::dram::GlobalRowId row, Picoseconds now) override;
  void on_refresh_window(Picoseconds now) override;

  [[nodiscard]] const TrackerStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t dram_counter_accesses() const {
    return dram_counter_accesses_;
  }

 private:
  dl::dram::Controller& ctrl_;
  std::uint64_t threshold_;
  std::uint32_t group_rows_;
  std::uint32_t radius_;
  std::unordered_map<std::uint64_t, std::uint64_t> groups_;
  std::unordered_map<dl::dram::GlobalRowId, std::uint64_t> row_counters_;
  std::unordered_map<std::uint64_t, bool> refined_;
  std::uint64_t dram_counter_accesses_ = 0;
  TrackerStats stats_;
};

}  // namespace dl::defense
