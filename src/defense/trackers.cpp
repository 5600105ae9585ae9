#include "defense/trackers.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dl::defense {

using dl::dram::GlobalRowId;

std::uint32_t refresh_neighbors(dl::dram::Controller& ctrl,
                                GlobalRowId aggressor, std::uint32_t radius) {
  const dl::dram::SubarrayRow a =
      dl::dram::split_row(ctrl.geometry(), aggressor);
  dl::dram::DefenseScope scope(ctrl);
  std::uint32_t issued = 0;
  for (const GlobalRowId victim : a.neighbours(radius)) {
    ctrl.refresh_row(victim);
    ++issued;
  }
  return issued;
}

// ---------------------------------------------------------------- TrrSampler

TrrSampler::TrrSampler(dl::dram::Controller& ctrl, double sample_probability,
                       std::uint32_t radius, dl::Rng rng)
    : ctrl_(ctrl), p_(sample_probability), radius_(radius), rng_(rng) {
  DL_REQUIRE(p_ > 0.0 && p_ <= 1.0, "sample probability in (0,1]");
}

void TrrSampler::on_activate(GlobalRowId row, Picoseconds) {
  ++stats_.observed_acts;
  if (!rng_.chance(p_)) return;
  ++stats_.mitigations;
  stats_.victim_refreshes += refresh_neighbors(ctrl_, row, radius_);
}

// ------------------------------------------------------------- CounterPerRow

CounterPerRow::CounterPerRow(dl::dram::Controller& ctrl,
                             std::uint64_t threshold, std::uint32_t radius)
    : ctrl_(ctrl), threshold_(threshold), radius_(radius) {
  DL_REQUIRE(threshold_ > 0, "threshold must be positive");
}

void CounterPerRow::on_activate(GlobalRowId row, Picoseconds) {
  ++stats_.observed_acts;
  std::uint64_t& c = counts_[row];
  if (++c >= threshold_) {
    c = 0;
    ++stats_.mitigations;
    stats_.victim_refreshes += refresh_neighbors(ctrl_, row, radius_);
  }
}

void CounterPerRow::on_refresh_window(Picoseconds) { counts_.clear(); }

void CounterPerRow::on_row_refresh(GlobalRowId row) { counts_.erase(row); }

std::uint64_t CounterPerRow::count(GlobalRowId row) const {
  const auto it = counts_.find(row);
  return it == counts_.end() ? 0 : it->second;
}

// ------------------------------------------------------------------ Graphene

Graphene::Graphene(dl::dram::Controller& ctrl, std::uint64_t threshold,
                   std::size_t entries, std::uint32_t radius)
    : ctrl_(ctrl), threshold_(threshold), entries_(entries), radius_(radius) {
  DL_REQUIRE(threshold_ > 0 && entries_ > 0, "invalid Graphene parameters");
}

void Graphene::on_activate(GlobalRowId row, Picoseconds) {
  ++stats_.observed_acts;
  // Misra-Gries update.
  auto it = table_.find(row);
  if (it != table_.end()) {
    ++it->second;
  } else if (table_.size() < entries_) {
    it = table_.emplace(row, spill_ + 1).first;
  } else {
    // Decrement phase: every tracked count and the incoming item share one
    // decrement; items reaching the spill floor are evicted.
    ++spill_;
    // dl-lint: allow(unordered-iter): erase-if sweep; the surviving set is
    // independent of visit order
    for (auto t = table_.begin(); t != table_.end();) {
      if (t->second <= spill_) {
        t = table_.erase(t);
      } else {
        ++t;
      }
    }
    return;
  }
  if (it->second >= threshold_) {
    it->second = 0;
    ++stats_.mitigations;
    stats_.victim_refreshes += refresh_neighbors(ctrl_, row, radius_);
  }
}

void Graphene::on_refresh_window(Picoseconds) {
  table_.clear();
  spill_ = 0;
}

// --------------------------------------------------------------- CounterTree

CounterTree::CounterTree(dl::dram::Controller& ctrl, std::uint64_t threshold,
                         std::uint32_t group_rows, std::uint32_t radius)
    : ctrl_(ctrl),
      threshold_(threshold),
      group_rows_(group_rows),
      radius_(radius) {
  DL_REQUIRE(group_rows_ > 0, "group size must be positive");
}

void CounterTree::on_activate(GlobalRowId row, Picoseconds) {
  ++stats_.observed_acts;
  const std::uint64_t group = row / group_rows_;
  auto fine_it = fine_.find(group);
  if (fine_it == fine_.end()) {
    std::uint64_t& c = coarse_[group];
    if (++c >= threshold_ / 2) {
      // Refine: allocate exact per-row counters for this group.
      fine_.emplace(group,
                    std::unordered_map<GlobalRowId, std::uint64_t>{});
      coarse_.erase(group);
    }
    return;
  }
  std::uint64_t& c = fine_it->second[row];
  if (++c >= threshold_) {
    c = 0;
    ++stats_.mitigations;
    stats_.victim_refreshes += refresh_neighbors(ctrl_, row, radius_);
  }
}

void CounterTree::on_refresh_window(Picoseconds) {
  coarse_.clear();
  fine_.clear();
}

// --------------------------------------------------------------------- Hydra

Hydra::Hydra(dl::dram::Controller& ctrl, std::uint64_t threshold,
             std::uint32_t group_rows, std::uint32_t radius)
    : ctrl_(ctrl),
      threshold_(threshold),
      group_rows_(group_rows),
      radius_(radius) {
  DL_REQUIRE(group_rows_ > 0, "group size must be positive");
}

void Hydra::on_activate(GlobalRowId row, Picoseconds) {
  ++stats_.observed_acts;
  const std::uint64_t group = row / group_rows_;
  if (!refined_[group]) {
    std::uint64_t& c = groups_[group];
    if (++c >= threshold_ / 2) {
      refined_[group] = true;  // per-row counters spill to DRAM
    }
    return;
  }
  // Row-counter access goes to DRAM: charge one burst of latency.
  ++dram_counter_accesses_;
  ctrl_.advance_time(ctrl_.timing().hit_latency());
  std::uint64_t& c = row_counters_[row];
  if (++c >= threshold_) {
    c = 0;
    ++stats_.mitigations;
    stats_.victim_refreshes += refresh_neighbors(ctrl_, row, radius_);
  }
}

void Hydra::on_refresh_window(Picoseconds) {
  groups_.clear();
  row_counters_.clear();
  refined_.clear();
}

}  // namespace dl::defense
