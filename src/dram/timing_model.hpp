// Cycle-approximate per-bank/per-channel DRAM timing engine.
//
// The legacy controller charges each logical access an analytic latency
// (tRCD+tCAS+tBURST etc.) and knows nothing about inter-command spacing.
// TimingModel replaces that with gem5-style bookkeeping on a deterministic
// integer-picosecond clock: every ACT/PRE/RD/WR is placed at the earliest
// instant that satisfies the bank-state machine (tRC, tRAS, tRCD, tCAS,
// tWR write recovery) and the channel-level activation pacing rules (tRRD
// between ACTs, at most four ACTs per rolling tFAW window), and all-bank
// auto-refresh (REF) is a first-class scheduled event: one REF is due
// every tREFI, occupies the channel for tRFC, precharges every bank, and
// contends with tenant traffic — a REF that cannot start on time slips
// until the in-flight command completes (slip is bounded by one command
// and reported in RefreshStats).
//
// "Cycle-approximate" scope: commands are resolved one at a time in arrival
// order (the controller is blocking, so there is no intra-channel command
// reordering), data-bus contention between banks is not modelled beyond
// the serialization this implies, and tCCD/tRTP-class column spacing is
// subsumed by the serialized completion times.  What *is* exact: per-bank
// ACT-to-ACT >= tRC, ACT-to-PRE >= tRAS, PRE-to-ACT >= tRP, ACT-to-column
// >= tRCD, cross-bank ACT pacing (tRRD/tFAW), and the REF schedule.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fields.hpp"
#include "common/units.hpp"
#include "dram/command.hpp"
#include "dram/timing.hpp"

namespace dl::dram {

/// Command issue times the TimingModel resolved for one logical operation.
/// A field is -1 when the corresponding command was not issued.
struct TimedAccess {
  Picoseconds pre_at = -1;   ///< PRE issue time (row conflict only)
  Picoseconds act_at = -1;   ///< ACT issue time (-1 on a row-buffer hit)
  Picoseconds col_at = -1;   ///< RD/WR issue time (-1 for ACT-only ops)
  Picoseconds done_at = 0;   ///< completion: data returned / bank released
  int refs = 0;              ///< scheduled REFs issued while resolving
};

/// Aggregate auto-refresh accounting for one channel.
struct RefreshStats {
  std::uint64_t refs_issued = 0;
  Picoseconds ref_busy_ps = 0;      ///< total channel time spent in REF
  Picoseconds max_ref_slip_ps = 0;  ///< worst REF start delay past its slot

  template <typename F>
  static void fields(F&& f) {
    f({"refs_issued"}, &RefreshStats::refs_issued);
    f({"ref_busy_ps"}, &RefreshStats::ref_busy_ps);
    f({"max_ref_slip_ps", nullptr, Merge::kMax}, &RefreshStats::max_ref_slip_ps);
  }
};

class TimingModel {
 public:
  /// `start` aligns the model clock when timing is enabled mid-simulation:
  /// the first REF becomes due at `start + tREFI`.
  TimingModel(const Timing& timing, std::size_t num_banks,
              const TimingSpec& spec, Picoseconds start = 0);

  /// REF records (CommandKind::kRefreshAll) are emitted into `trace` at
  /// their true start times; nullptr disables REF tracing.
  void set_trace(CommandTrace* trace) { trace_ = trace; }

  /// Issues every scheduled REF due at or before `now`.  Returns the
  /// number issued; the caller must treat all banks as precharged when
  /// it is non-zero.
  int catch_up(Picoseconds now);

  /// Resolves a read/write to `bank` arriving at `now`.  `hit` means the
  /// target row is open; `bank_open` means *some* row is open (a conflict
  /// PRE is needed when open but not a hit).
  TimedAccess read_write(std::size_t bank, bool hit, bool bank_open,
                         bool is_write, Picoseconds now);

  /// Resolves a hammer ACT (+implicit PRE).  The command retires off the
  /// bus after one tCK; bank occupancy (tRAS, tRC) is tracked in bank
  /// state so same-bank re-activation pays full tRC while other banks
  /// proceed under tRRD/tFAW pacing.
  TimedAccess hammer(std::size_t bank, bool bank_open, Picoseconds now);

  /// Resolves a RowClone AAP (ACT-ACT, then PRE) occupying the bank for
  /// tAAP + tRP past the ACT.
  TimedAccess row_clone(std::size_t bank, bool bank_open, Picoseconds now);

  /// Resolves a defense-issued targeted row refresh (ACT + PRE, tRC).
  TimedAccess refresh_row(std::size_t bank, bool bank_open, Picoseconds now);

  [[nodiscard]] const RefreshStats& refresh_stats() const { return stats_; }
  [[nodiscard]] const TimingSpec& spec() const { return spec_; }
  [[nodiscard]] Picoseconds next_refresh_at() const { return next_ref_at_; }

 private:
  struct BankState {
    Picoseconds act_ok = 0;  ///< earliest next ACT (tRC, REF blocking)
    Picoseconds pre_ok = 0;  ///< earliest next PRE (tRAS, write recovery)
    Picoseconds col_ok = 0;  ///< earliest next column command (tRCD)
  };

  static constexpr std::size_t kFawDepth = 4;

  /// Places the ACT for `bank` at the earliest legal instant, issuing any
  /// REF whose slot precedes it first (REF wins: no REF starvation under
  /// saturating traffic).  Fills pre_at/act_at/refs of `out` and updates
  /// bank and channel state.
  Picoseconds activate(std::size_t bank, bool bank_open, Picoseconds now,
                       TimedAccess& out);

  void do_ref();

  Timing t_;
  TimingSpec spec_;
  std::vector<BankState> banks_;
  std::array<Picoseconds, kFawDepth> faw_{};  ///< last four ACT times
  std::size_t faw_head_ = 0;                  ///< oldest entry in faw_
  Picoseconds last_act_;                      ///< channel-wide last ACT
  Picoseconds quiet_at_;     ///< all prior commands complete; REF start floor
  Picoseconds next_ref_at_;  ///< next scheduled REF slot
  RefreshStats stats_;
  CommandTrace* trace_ = nullptr;
};

}  // namespace dl::dram
