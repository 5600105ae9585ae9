// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "rowhammer/attacker.hpp"

#include "common/error.hpp"

namespace dl::rowhammer {

using dl::dram::GlobalRowId;

const char* to_string(HammerPattern p) {
  switch (p) {
    case HammerPattern::kSingleSided: return "single-sided";
    case HammerPattern::kDoubleSided: return "double-sided";
    case HammerPattern::kManySided:   return "many-sided";
    case HammerPattern::kHalfDouble:  return "half-double";
  }
  return "?";
}

HammerAttacker::HammerAttacker(dl::dram::Controller& ctrl,
                               DisturbanceModel& model)
    : ctrl_(ctrl), model_(model) {}

std::vector<GlobalRowId> aggressor_rows(const dl::dram::Geometry& g,
                                        GlobalRowId victim_logical,
                                        HammerPattern pattern) {
  const dl::dram::SubarrayRow v = dl::dram::split_row(g, victim_logical);
  std::vector<std::int64_t> offsets;
  switch (pattern) {
    case HammerPattern::kSingleSided: offsets = {+1}; break;
    case HammerPattern::kDoubleSided: offsets = {-1, +1}; break;
    case HammerPattern::kManySided:   offsets = {-2, -1, +1, +2}; break;
    case HammerPattern::kHalfDouble:  offsets = {-2, +2}; break;
  }
  std::vector<GlobalRowId> rows;
  for (const std::int64_t off : offsets) {
    if (const auto row = v.offset(off)) rows.push_back(*row);
  }
  return rows;
}

std::vector<GlobalRowId> HammerAttacker::aggressors_for(
    GlobalRowId victim_logical, HammerPattern pattern) const {
  return aggressor_rows(ctrl_.geometry(), victim_logical, pattern);
}

HammerResult HammerAttacker::attack(GlobalRowId victim_logical,
                                    HammerPattern pattern,
                                    std::uint64_t act_budget,
                                    std::uint64_t stop_after_flips) {
  const auto aggressors = aggressors_for(victim_logical, pattern);
  DL_REQUIRE(!aggressors.empty(), "victim has no addressable aggressors");

  HammerResult res;
  const Picoseconds start = ctrl_.now();

  // Count flips that land in the row currently holding the victim's data.
  // The scope guard clears the callback even if a hammer access throws, and
  // restores whatever callback an outer driver had installed on the shared
  // disturbance model.
  std::uint64_t victim_flips = 0;
  std::uint64_t other_flips = 0;
  FlipCallbackScope scope(model_, [&](const FlipEvent& ev) {
    const GlobalRowId victim_phys =
        ctrl_.indirection().to_physical(victim_logical);
    if (ev.victim_row == victim_phys) {
      ++victim_flips;
    } else {
      ++other_flips;
    }
  });

  std::vector<dl::dram::PhysAddr> addrs;
  addrs.reserve(aggressors.size());
  for (const GlobalRowId a : aggressors) {
    addrs.push_back(ctrl_.mapper().row_base(a));
  }
  std::size_t next = 0;
  for (std::uint64_t i = 0; i < act_budget; ++i) {
    const auto out = ctrl_.hammer(addrs[next], /*can_unlock=*/false);
    if (++next == addrs.size()) next = 0;
    if (out.granted) {
      ++res.granted_acts;
    } else {
      ++res.denied_acts;
    }
    if (stop_after_flips > 0 && victim_flips >= stop_after_flips) break;
  }

  res.flips_in_victim = victim_flips;
  res.flips_elsewhere = other_flips;
  res.elapsed = ctrl_.now() - start;
  return res;
}

}  // namespace dl::rowhammer
