#include "rowhammer/disturbance.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dl::rowhammer {

using dl::dram::GlobalRowId;

DisturbanceModel::DisturbanceModel(dl::dram::Controller& ctrl,
                                   DisturbanceConfig config, dl::Rng rng)
    : ctrl_(ctrl), config_(config), rng_(rng) {
  DL_REQUIRE(config_.t_rh > 0, "T_RH must be positive");
  DL_REQUIRE(config_.distance2_weight >= 0.0 && config_.distance2_weight <= 1.0,
             "distance-2 weight in [0,1]");
  const auto& g = ctrl_.geometry();
  DL_REQUIRE(g.rows_per_subarray > 0, "subarrays must hold rows");
  pages_.resize(g.total_banks() * g.subarrays_per_bank);
}

void DisturbanceModel::on_activate(GlobalRowId physical_row, Picoseconds now) {
  const dl::dram::SubarrayRow a =
      dl::dram::split_row(ctrl_.geometry(), physical_row);
  Page& page = pages_[a.subarray];
  if (page.window != window_) {
    if (page.rows) {
      std::fill_n(page.rows.get(), a.rows_per_subarray, 0.0);
    } else {
      page.rows = std::make_unique<double[]>(a.rows_per_subarray);
    }
    page.window = window_;
  }
  // Neighbours at distance 1 and (optionally) 2, staying inside the subarray.
  struct Neighbour {
    std::int64_t offset;
    double weight;
  };
  const Neighbour neighbours[] = {
      {-1, 1.0}, {+1, 1.0},
      {-2, config_.distance2_weight}, {+2, config_.distance2_weight}};
  const GlobalRowId base = a.base();
  for (const auto& nb : neighbours) {
    if (nb.weight <= 0.0) continue;
    const std::optional<GlobalRowId> victim = a.offset(nb.offset);
    if (!victim) continue;
    double& acc = page.rows[*victim - base];
    acc += nb.weight;
    if (acc >= static_cast<double>(config_.t_rh)) {
      inject_flips(*victim, now);
      acc = 0.0;  // the disturbed cells have discharged; accumulation restarts
    }
  }
}

void DisturbanceModel::inject_flips(GlobalRowId victim, Picoseconds now) {
  const auto& g = ctrl_.geometry();
  for (unsigned i = 0; i < config_.max_flips_per_event; ++i) {
    FlipEvent ev;
    ev.victim_row = victim;
    ev.at = now;
    if (config_.deterministic_bits) {
      ev.byte = 0;
      ev.bit = 0;
    } else {
      ev.byte = static_cast<std::uint32_t>(rng_.next_below(g.row_bytes));
      ev.bit = static_cast<unsigned>(rng_.next_below(8));
    }
    ctrl_.data().flip_bit(ev.victim_row, ev.byte, ev.bit);
    flips_.push_back(ev);
    ++total_flips_;
    if (callback_) callback_(ev);
  }
}

void DisturbanceModel::on_refresh_window(Picoseconds) { ++window_; }

double* DisturbanceModel::live_accumulator(GlobalRowId row) const {
  const auto& g = ctrl_.geometry();
  if (row >= g.total_rows()) return nullptr;
  const dl::dram::SubarrayRow a = dl::dram::split_row(g, row);
  const Page& page = pages_[a.subarray];
  return page.window == window_ ? &page.rows[a.row] : nullptr;
}

void DisturbanceModel::on_row_refresh(GlobalRowId physical_row) {
  if (double* acc = live_accumulator(physical_row)) *acc = 0.0;
}

double DisturbanceModel::disturbance(GlobalRowId row) const {
  const double* acc = live_accumulator(row);
  return acc == nullptr ? 0.0 : *acc;
}

}  // namespace dl::rowhammer
