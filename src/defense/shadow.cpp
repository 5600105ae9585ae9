#include "defense/shadow.hpp"

#include "common/error.hpp"

namespace dl::defense {

using dl::dram::from_global;
using dl::dram::GlobalRowId;
using dl::dram::RowAddress;
using dl::dram::to_global;

Shadow::Shadow(dl::dram::Controller& ctrl, ShadowConfig config, dl::Rng rng)
    : ctrl_(ctrl), config_(config), rng_(rng) {
  DL_REQUIRE(config_.threshold >= 2, "threshold too small");
  DL_REQUIRE(config_.table_entries > 0, "bookkeeping table must be non-empty");
}

void Shadow::on_activate(GlobalRowId physical_row, Picoseconds) {
  if (in_mitigation_ || compromised_) return;
  std::uint64_t& c = counts_[physical_row];
  ++c;
  if (c >= config_.threshold / 2) {
    c = 0;
    shuffle_victims(physical_row);
  }
}

void Shadow::shuffle_victims(GlobalRowId aggressor_phys) {
  const dl::dram::SubarrayRow a =
      dl::dram::split_row(ctrl_.geometry(), aggressor_phys);
  in_mitigation_ = true;
  dl::dram::DefenseScope scope(ctrl_);
  for (const GlobalRowId victim : a.neighbours(config_.victim_radius)) {
    if (entries_used_ >= config_.table_entries) {
      compromised_ = true;  // bookkeeping exhausted: mitigation stops
      break;
    }
    shuffle_one(victim);
  }
  in_mitigation_ = false;
}

void Shadow::shuffle_one(GlobalRowId victim_phys) {
  const auto& g = ctrl_.geometry();
  const RowAddress v = from_global(g, victim_phys);
  // Pick a random partner row in the same subarray (excluding the buffer
  // row, the victim itself, and its immediate neighbourhood).
  RowAddress partner = v;
  const std::uint32_t buffer_row = g.rows_per_subarray - 1;
  for (int attempts = 0; attempts < 16; ++attempts) {
    partner.row =
        static_cast<std::uint32_t>(rng_.next_below(g.rows_per_subarray - 1));
    const std::uint32_t dist = partner.row > v.row ? partner.row - v.row
                                                   : v.row - partner.row;
    if (partner.row != buffer_row && dist > 2) break;
  }
  if (partner.row == v.row) return;

  RowAddress buffer = v;
  buffer.row = buffer_row;
  const GlobalRowId partner_phys = to_global(g, partner);
  const GlobalRowId buffer_phys = to_global(g, buffer);

  // 3-copy swap through the subarray buffer row.
  ctrl_.row_clone(victim_phys, buffer_phys);
  ctrl_.row_clone(partner_phys, victim_phys);
  ctrl_.row_clone(buffer_phys, partner_phys);

  const GlobalRowId la = ctrl_.indirection().to_logical(victim_phys);
  const GlobalRowId lb = ctrl_.indirection().to_logical(partner_phys);
  ctrl_.indirection().swap_logical(la, lb);

  ++shuffles_;
  ++entries_used_;
}

void Shadow::on_refresh_window(Picoseconds) { counts_.clear(); }

void Shadow::on_row_refresh(GlobalRowId physical_row) {
  counts_.erase(physical_row);
}

}  // namespace dl::defense
