// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "defense/dram_locker.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "defense/trackers.hpp"

namespace dl::defense {

using dl::dram::from_global;
using dl::dram::GlobalRowId;
using dl::dram::RowAddress;
using dl::dram::to_global;

std::size_t DramLocker::SubarrayKeyHash::operator()(
    const SubarrayKey& k) const {
  std::size_t h = k.channel;
  h = h * 1000003u + k.rank;
  h = h * 1000003u + k.bank;
  h = h * 1000003u + k.subarray;
  return h;
}

DramLocker::DramLocker(dl::dram::Controller& ctrl, DramLockerConfig config,
                       dl::Rng rng)
    : ctrl_(ctrl),
      config_(config),
      table_(config.lock_table_entries),
      sequencer_(ctrl, rng, config.copy_error_rate) {
  DL_REQUIRE(config_.reserved_rows_per_subarray >= 2,
             "need at least a buffer row and one free row per subarray");
  DL_REQUIRE(config_.reserved_rows_per_subarray <
                 ctrl.geometry().rows_per_subarray,
             "reserved rows must leave space for data");
  DL_REQUIRE(config_.relock_rw_interval > 0, "relock interval must be >0");
  DL_REQUIRE(config_.fallback_act_threshold > 0,
             "fallback refresh threshold must be >0");
}

DramLocker::SubarrayKey DramLocker::key_of(const RowAddress& a) const {
  return SubarrayKey{a.channel, a.rank, a.bank, a.subarray};
}

void DramLocker::build_reserved(const SubarrayKey& key) {
  const auto& g = ctrl_.geometry();
  ReservedRows r;
  RowAddress a;
  a.channel = key.channel;
  a.rank = key.rank;
  a.bank = key.bank;
  a.subarray = key.subarray;
  const std::uint32_t first =
      g.rows_per_subarray - config_.reserved_rows_per_subarray;
  for (std::uint32_t i = first; i < g.rows_per_subarray; ++i) {
    a.row = i;
    const GlobalRowId id = to_global(g, a);
    reserved_set_.insert(id);
    if (i + 1 == g.rows_per_subarray) {
      r.buffer = id;  // last row of the subarray is the buffer row
    } else {
      r.free_pool.push_back(id);
    }
  }
  reserved_.emplace(key, std::move(r));
}

DramLocker::ReservedRows& DramLocker::reserved_for(GlobalRowId physical_row) {
  const SubarrayKey key = key_of(from_global(ctrl_.geometry(), physical_row));
  auto it = reserved_.find(key);
  if (it == reserved_.end()) {
    build_reserved(key);
    it = reserved_.find(key);
  }
  return it->second;
}

bool DramLocker::is_reserved(GlobalRowId physical_row) const {
  if (reserved_set_.contains(physical_row)) return true;
  // Rows in the reserved band of a not-yet-materialized subarray.
  const auto& g = ctrl_.geometry();
  const RowAddress a = from_global(g, physical_row);
  return a.row >= g.rows_per_subarray - config_.reserved_rows_per_subarray;
}

std::size_t DramLocker::protect_data_row(GlobalRowId logical_row) {
  const dl::dram::SubarrayRow a = dl::dram::split_row(
      ctrl_.geometry(), ctrl_.indirection().to_physical(logical_row));
  std::size_t locked = 0;
  // The data row itself stays accessible.
  for (const GlobalRowId nb_row : a.neighbours(config_.protect_radius)) {
    // Neighbours inside the defense-reserved band cannot (and need not) be
    // locked: those rows never hold attacker-addressable data.
    if (is_reserved(nb_row)) continue;
    if (lock_physical_row(nb_row)) ++locked;
  }
  return locked;
}

bool DramLocker::lock_physical_row(GlobalRowId physical_row) {
  DL_REQUIRE(!is_reserved(physical_row),
             "defense-reserved rows cannot be locked");
  if (table_.lock(physical_row)) {
    monitored_.erase(physical_row);  // promoted back to a real lock
    return true;
  }
  // lock() refuses both duplicates and a full table; only the latter leaves
  // the row unprotected, and that is where the fallback steps in.
  if (table_.size() < table_.capacity() || table_.is_locked(physical_row)) {
    return false;
  }
  if (degrade_to_monitoring(physical_row)) {
    ++stats_.degraded_locks;
    ctrl_.counters().add(dl::dram::Counter::kDegradedLocks);
  }
  return false;
}

void DramLocker::unprotect_data_row(GlobalRowId logical_row) {
  const dl::dram::SubarrayRow a = dl::dram::split_row(
      ctrl_.geometry(), ctrl_.indirection().to_physical(logical_row));
  for (const GlobalRowId nb_row : a.neighbours(config_.protect_radius)) {
    table_.unlock(nb_row);
  }
}

bool DramLocker::unlock_swap(GlobalRowId locked_phys) {
  ReservedRows& res = reserved_for(locked_phys);
  if (res.free_pool.empty()) return false;
  const GlobalRowId free_phys = res.free_pool.back();
  res.free_pool.pop_back();

  // Execute the Fig. 4(b) SWAP µprogram: locked -> buffer, free -> locked,
  // buffer -> free.  After it, the locked row's data lives in `free_phys`.
  dl::dram::DefenseScope scope(ctrl_);
  sequencer_.load_reg(kRegLocked, locked_phys);
  sequencer_.load_reg(kRegUnlocked, free_phys);
  sequencer_.load_reg(kRegBuffer, res.buffer);
  const SequencerResult sr = sequencer_.run(swap_program());
  DL_ASSERT(sr.completed);
  stats_.swap_copy_errors += sr.copy_errors;
  ++stats_.unlock_swaps;

  // Keep addressing stable: the logical row that pointed at locked_phys now
  // resolves to free_phys (and vice versa).
  const GlobalRowId logical_locked =
      ctrl_.indirection().to_logical(locked_phys);
  const GlobalRowId logical_free = ctrl_.indirection().to_logical(free_phys);
  ctrl_.indirection().swap_logical(logical_locked, logical_free);

  pending_.push_back({locked_phys, free_phys,
                      stats_.rw_instructions + config_.relock_rw_interval});
  return true;
}

void DramLocker::process_relocks() {
  while (!pending_.empty() &&
         pending_.front().due_at_rw <= stats_.rw_instructions) {
    const PendingRelock p = pending_.front();
    pending_.pop_front();
    ++stats_.relocks;
    switch (config_.relock_policy) {
      case RelockPolicy::kRelockNewLocation: {
        // Fig. 4(d): the data's new home inherits the lock; the old locked
        // row (holding the former free-row contents) returns to the pool.
        table_.relocate(p.old_phys, p.new_phys);
        ReservedRows& res = reserved_for(p.old_phys);
        res.free_pool.push_back(p.old_phys);
        break;
      }
      case RelockPolicy::kSwapBack: {
        dl::dram::DefenseScope scope(ctrl_);
        ReservedRows& res = reserved_for(p.old_phys);
        sequencer_.load_reg(kRegLocked, p.new_phys);
        sequencer_.load_reg(kRegUnlocked, p.old_phys);
        sequencer_.load_reg(kRegBuffer, res.buffer);
        const SequencerResult sr = sequencer_.run(swap_program());
        DL_ASSERT(sr.completed);
        stats_.swap_copy_errors += sr.copy_errors;
        const GlobalRowId la = ctrl_.indirection().to_logical(p.new_phys);
        const GlobalRowId lb = ctrl_.indirection().to_logical(p.old_phys);
        ctrl_.indirection().swap_logical(la, lb);
        res.free_pool.push_back(p.new_phys);
        break;
      }
    }
  }
}

dl::dram::GateDecision DramLocker::before_access(
    const dl::dram::AccessRequest& req, dl::dram::Controller& ctrl) {
  ++stats_.rw_instructions;
  process_relocks();

  const GlobalRowId phys = ctrl.indirection().to_physical(req.logical_row);
  if (!table_.is_locked(phys)) {
    if (!monitored_.empty()) note_monitored_access(phys);
    return dl::dram::GateDecision::kAllow;
  }

  if (!req.can_unlock) {
    ++stats_.denied;
    return dl::dram::GateDecision::kDeny;
  }

  // A spent swap budget is treated like an empty free pool: the unlock SWAP
  // cannot run, so either deny (paper-faithful) or degrade gracefully.
  const bool budget_spent =
      config_.swap_budget > 0 && stats_.unlock_swaps >= config_.swap_budget;
  if (!budget_spent && unlock_swap(phys)) {
    return dl::dram::GateDecision::kAllow;
  }
  if (config_.degrade_on_exhaustion) {
    // Give up the lock but keep the row under tracker-only monitoring, so
    // its neighbours still get targeted refreshes.  Weaker than a lock,
    // far stronger than dropping protection outright.
    table_.unlock(phys);
    degrade_to_monitoring(phys);
    ++stats_.degraded_swaps;
    ctrl_.counters().add(dl::dram::Counter::kDegradedSwaps);
    return dl::dram::GateDecision::kAllow;
  }
  if (budget_spent) {
    ++stats_.swap_budget_denials;
  } else {
    ++stats_.pool_exhausted_denials;
  }
  return dl::dram::GateDecision::kDeny;
}

bool DramLocker::degrade_to_monitoring(GlobalRowId physical_row) {
  return monitored_.emplace(physical_row, 0).second;
}

void DramLocker::note_monitored_access(GlobalRowId physical_row) {
  const auto it = monitored_.find(physical_row);
  if (it == monitored_.end()) return;
  if (++it->second < config_.fallback_act_threshold) return;
  it->second = 0;
  refresh_neighbors(ctrl_, physical_row, config_.protect_radius);
  ++stats_.fallback_refreshes;
}

}  // namespace dl::defense
