// DRAM-Locker: the paper's defense mechanism (Sec. IV).
//
// Idea: prevent an attacker from singling out specific DRAM rows by placing
// the rows *adjacent to* protected data in a lock-table.  Activations to a
// locked row without the unlock capability are skipped outright, so no
// RowHammer disturbance ever accumulates next to the protected data.  When
// the legitimate program (which has ISA support) needs data in a locked
// row, the controller runs the 3-copy SWAP µprogram to move that data to a
// free row — unlocking it functionally — and re-locks after a cumulative
// count of R/W instructions (default 1k, Fig. 4(d)).
//
// Row bookkeeping: the last `reserved_rows_per_subarray` rows of every
// subarray are reserved for the defense (one buffer row for the RowClone
// triangle plus a pool of free rows to swap into); a real deployment
// reserves them via the OS driver at boot.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "defense/lock_table.hpp"
#include "defense/sequencer.hpp"
#include "dram/controller.hpp"

namespace dl::defense {

enum class RelockPolicy : std::uint8_t {
  /// Fig. 4(d): after the re-lock interval the lock-table is updated so the
  /// data's *new* location is locked; the old locked row (now holding the
  /// free row's former contents) joins the free pool.
  kRelockNewLocation,
  /// Alternative: swap the data back to its original row (3 more copies)
  /// and keep the lock-table unchanged.  Costs more copies, preserves the
  /// physical layout.  Used for the ablation bench.
  kSwapBack,
};

struct DramLockerConfig {
  std::size_t lock_table_entries = 16384;
  std::uint64_t relock_rw_interval = 1000;  ///< R/W instructions (paper: 1k)
  double copy_error_rate = 0.0;             ///< per-RowClone, from Sec. IV-D
  RelockPolicy relock_policy = RelockPolicy::kRelockNewLocation;
  std::uint32_t protect_radius = 2;  ///< lock rows within this distance
  std::uint32_t reserved_rows_per_subarray = 8;

  // -- graceful degradation (resilience layer) --------------------------------
  // When the SRAM lock-table fills, rows that should have been locked are
  // demoted to a tracker-only fallback (access-counted, neighbours refreshed
  // at fallback_act_threshold) instead of being silently left unprotected.
  // Optionally the same fallback absorbs swap-resource exhaustion: with
  // degrade_on_exhaustion set, a privileged access that cannot swap (free
  // pool empty, or swap_budget spent) unlocks the row into monitoring and
  // proceeds, instead of being denied.

  /// Unlock SWAPs allowed per campaign (0 = unlimited).  Models a bounded
  /// migration/energy budget; overflow behaviour depends on
  /// degrade_on_exhaustion.
  std::uint64_t swap_budget = 0;
  /// Degrade (allow + monitor) instead of denying when an unlock SWAP is
  /// impossible.  Off by default: the paper-faithful policy denies.
  bool degrade_on_exhaustion = false;
  /// Accesses to a fallback-monitored row between targeted refreshes of its
  /// neighbours (the tracker-only protection level).
  std::uint64_t fallback_act_threshold = 512;
};

class DramLocker final : public dl::dram::AccessGate {
 public:
  DramLocker(dl::dram::Controller& ctrl, DramLockerConfig config, dl::Rng rng);

  // -- protection API ---------------------------------------------------------

  /// Locks every in-bounds row within `protect_radius` of the data row's
  /// current physical location.  Returns the number of rows newly locked.
  std::size_t protect_data_row(dl::dram::GlobalRowId logical_row);

  /// Locks one specific physical row (user-directed, Sec. IV-A: "users can
  /// manually add any row that has a high probability of becoming an
  /// aggressor row").
  bool lock_physical_row(dl::dram::GlobalRowId physical_row);

  /// Removes the locks installed around a data row.
  void unprotect_data_row(dl::dram::GlobalRowId logical_row);

  /// True if the physical row is reserved for defense bookkeeping (buffer /
  /// free pool); callers should not place data there.
  [[nodiscard]] bool is_reserved(dl::dram::GlobalRowId physical_row) const;

  // -- AccessGate --------------------------------------------------------------

  dl::dram::GateDecision before_access(const dl::dram::AccessRequest& req,
                                       dl::dram::Controller& ctrl) override;

  // -- introspection ------------------------------------------------------------

  [[nodiscard]] const LockTable& lock_table() const { return table_; }
  [[nodiscard]] LockTable& lock_table() { return table_; }
  [[nodiscard]] const DramLockerConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t rw_instructions = 0;
    std::uint64_t denied = 0;
    std::uint64_t unlock_swaps = 0;
    std::uint64_t relocks = 0;
    std::uint64_t swap_copy_errors = 0;
    std::uint64_t pool_exhausted_denials = 0;
    // Degradation ladder counters (see DramLockerConfig).
    std::uint64_t swap_budget_denials = 0;  ///< budget spent, not degrading
    std::uint64_t degraded_locks = 0;       ///< rows demoted: table full
    std::uint64_t degraded_swaps = 0;       ///< accesses allowed: no swap left
    std::uint64_t fallback_refreshes = 0;   ///< refresh rounds the fallback ran

    template <typename F>
    static void fields(F&& f) {
      f({"rw_instructions"}, &Stats::rw_instructions);
      f({"denied"}, &Stats::denied);
      f({"unlock_swaps"}, &Stats::unlock_swaps);
      f({"relocks"}, &Stats::relocks);
      f({"swap_copy_errors"}, &Stats::swap_copy_errors);
      f({"pool_exhausted_denials"}, &Stats::pool_exhausted_denials);
      f({"swap_budget_denials"}, &Stats::swap_budget_denials);
      f({"degraded_locks"}, &Stats::degraded_locks);
      f({"degraded_swaps"}, &Stats::degraded_swaps);
      f({"fallback_refreshes"}, &Stats::fallback_refreshes);
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Number of pending (swapped-out, not yet re-locked) rows.
  [[nodiscard]] std::size_t pending_relocks() const { return pending_.size(); }

  /// Rows currently under tracker-only fallback protection.
  [[nodiscard]] std::size_t monitored_rows() const { return monitored_.size(); }

 private:
  struct SubarrayKey {
    std::uint32_t channel, rank, bank, subarray;
    bool operator==(const SubarrayKey&) const = default;
  };
  struct SubarrayKeyHash {
    std::size_t operator()(const SubarrayKey& k) const;
  };
  struct ReservedRows {
    dl::dram::GlobalRowId buffer = 0;
    std::vector<dl::dram::GlobalRowId> free_pool;
  };
  struct PendingRelock {
    dl::dram::GlobalRowId old_phys = 0;  ///< original locked location
    dl::dram::GlobalRowId new_phys = 0;  ///< free row now holding the data
    std::uint64_t due_at_rw = 0;         ///< rw-instruction count deadline
  };

  dl::dram::Controller& ctrl_;
  DramLockerConfig config_;
  LockTable table_;
  Sequencer sequencer_;
  Stats stats_;
  std::unordered_map<SubarrayKey, ReservedRows, SubarrayKeyHash> reserved_;
  std::unordered_set<dl::dram::GlobalRowId> reserved_set_;
  std::deque<PendingRelock> pending_;
  /// Tracker-only fallback: physical row -> accesses since its last
  /// neighbour refresh (rows the table could not hold / unlock could not
  /// swap).  Point lookups only, so iteration order never matters.
  std::unordered_map<dl::dram::GlobalRowId, std::uint64_t> monitored_;

  [[nodiscard]] SubarrayKey key_of(const dl::dram::RowAddress& a) const;
  ReservedRows& reserved_for(dl::dram::GlobalRowId physical_row);
  void build_reserved(const SubarrayKey& key);

  /// Runs the unlock SWAP for a locked physical row; returns true on
  /// success (free row available).
  bool unlock_swap(dl::dram::GlobalRowId locked_phys);

  /// Re-locks every pending row whose interval expired.
  void process_relocks();

  /// Demotes a physical row to the tracker-only fallback (lock unavailable).
  /// Returns true when the row was not already monitored.
  bool degrade_to_monitoring(dl::dram::GlobalRowId physical_row);

  /// Counts an access to a monitored row; refreshes its neighbours at the
  /// fallback threshold.
  void note_monitored_access(dl::dram::GlobalRowId physical_row);
};

}  // namespace dl::defense
