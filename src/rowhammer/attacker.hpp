// RowHammer attacker models.
//
// The attacker follows the paper's threat model: an unprivileged co-located
// process that (a) knows the *initial* static DRAM mapping, so it can compute
// the rows physically adjacent to a victim row, and (b) can issue arbitrary
// activations to addresses it chooses.  It cannot unlock DRAM-Locker rows and
// it cannot observe the hidden logical-to-physical indirection that swap
// defenses maintain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hpp"
#include "dram/controller.hpp"
#include "rowhammer/disturbance.hpp"

namespace dl::rowhammer {

enum class HammerPattern : std::uint8_t {
  kSingleSided,  ///< hammer one neighbour of the victim
  kDoubleSided,  ///< hammer both distance-1 neighbours (classic)
  kManySided,    ///< hammer 4 nearest rows (TRRespass-style)
  kHalfDouble,   ///< hammer distance-2 rows (Kogler et al.)
};

[[nodiscard]] const char* to_string(HammerPattern p);

/// Rows an attacker hammers to disturb `victim_logical` under `pattern`,
/// computed from the initial static mapping (physical adjacency at boot).
/// Offsets that fall outside the victim's subarray are dropped.  Shared by
/// HammerAttacker and the dl::traffic hammer streams.
[[nodiscard]] std::vector<dl::dram::GlobalRowId> aggressor_rows(
    const dl::dram::Geometry& geometry, dl::dram::GlobalRowId victim_logical,
    HammerPattern pattern);

/// Outcome of one hammering campaign.
struct HammerResult {
  std::uint64_t granted_acts = 0;  ///< activations that reached the array
  std::uint64_t denied_acts = 0;   ///< activations denied by a defense gate
  std::uint64_t flips_in_victim = 0;  ///< flips landing in the intended data
  std::uint64_t flips_elsewhere = 0;  ///< collateral flips in other rows
  Picoseconds elapsed = 0;

  template <typename F>
  static void fields(F&& f) {
    f({"granted_acts"}, &HammerResult::granted_acts);
    f({"denied_acts"}, &HammerResult::denied_acts);
    f({"flips_in_victim"}, &HammerResult::flips_in_victim);
    f({"flips_elsewhere"}, &HammerResult::flips_elsewhere);
    f({"elapsed", "elapsed_ps"}, &HammerResult::elapsed);
  }
};

class HammerAttacker {
 public:
  HammerAttacker(dl::dram::Controller& ctrl, DisturbanceModel& model);

  /// Rows the attacker will hammer to disturb `victim_logical`, computed
  /// from the initial static mapping (physical adjacency at boot).
  [[nodiscard]] std::vector<dl::dram::GlobalRowId> aggressors_for(
      dl::dram::GlobalRowId victim_logical, HammerPattern pattern) const;

  /// Issues up to `act_budget` total activations round-robin over the
  /// aggressor set, stopping early once at least `stop_after_flips` flips
  /// landed in the victim row's current data (0 = never stop early).
  HammerResult attack(dl::dram::GlobalRowId victim_logical,
                      HammerPattern pattern, std::uint64_t act_budget,
                      std::uint64_t stop_after_flips = 0);

 private:
  dl::dram::Controller& ctrl_;
  DisturbanceModel& model_;
};

}  // namespace dl::rowhammer
