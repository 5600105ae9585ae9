// Deterministic DRAM fault injection (the resilience layer's fault side).
//
// Rowhammer disturbance is the only fault the simulator modelled until now,
// but the attack surface RADAR-style defenses face is wider: retention
// errors accumulate between refreshes, cells weaken into stuck-at behaviour
// under templated flipping, and — crucially — the *defense metadata*
// (lock-table entries, the row-indirection map, checksum storage) lives in
// the same fallible hardware as the data it guards.  FaultInjector models
// all of these as a cadence of injection events driven by physical
// activations: every `period_acts` ACTs one event fires and draws each
// configured fault class from a private RNG stream.
//
// Fault taxonomy (see docs/ARCHITECTURE.md "Failure model & recovery"):
//
//   retention  — a cell leaks charge and reads as discharged: one bit in
//     the target region is forced to 0 (counted only when it changed).
//   transient  — a soft error flips one bit in the target region.
//   stuck-at   — `stuck_cells` cells are chosen once at construction and
//     re-asserted to their stuck value on every event, so corrections and
//     zero-outs do not hold: the scrubber re-detects them pass after pass.
//   lock-evict — one random lock-table entry is dropped (SRAM metadata
//     fault), silently re-opening the hammering window it guarded.
//   remap      — two rows of the target region are spuriously exchanged in
//     the RowIndirection map (the permutation invariant is preserved, but
//     addresses now resolve to the wrong data).
//   checksum   — one random bit of the attached BlockChecksums storage
//     flips, exercising the verifier's checksum-repair path.
//
// Determinism: the injector owns a dl::Rng seeded from FaultSpec::seed;
// scenario::expand() derives that seed from the per-campaign seed tree
// (epoch 2), so fault campaigns stay byte-identical for any DL_THREADS
// value.  Injection mutates the data store / defense metadata directly and
// never issues controller traffic, so it cannot recurse into on_activate.
//
// Thread safety: none — an injector belongs to one campaign's controller.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fields.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"

namespace dl::defense {
class LockTable;
}
namespace dl::integrity {
class BlockChecksums;
}

namespace dl::faults {

/// Declarative fault model of one campaign's DRAM environment.  All rates
/// are per-injection-event probabilities in [0, 1]; the model is disabled
/// unless period_acts > 0 and at least one fault class is configured.
struct FaultSpec {
  std::uint64_t seed = 11;        ///< injector-private RNG stream
  std::uint64_t period_acts = 0;  ///< ACTs between injection events (0 = off)

  double retention_rate = 0.0;    ///< P(one retention discharge per event)
  double transient_rate = 0.0;    ///< P(one transient bit flip per event)
  std::size_t stuck_cells = 0;    ///< stuck-at cells installed at setup

  // Defense-metadata faults (each needs the matching target attached —
  // campaigns without a lock table / checksums draw but skip the action).
  double lock_evict_rate = 0.0;     ///< P(drop one lock-table entry)
  double remap_fault_rate = 0.0;    ///< P(spurious indirection swap)
  double checksum_fault_rate = 0.0; ///< P(flip one checksum storage bit)

  /// Physical row region data faults target; target_rows = 0 means the
  /// whole geometry.  The remap fault treats the same range as logical ids.
  dl::dram::GlobalRowId target_base = 0;
  std::uint64_t target_rows = 0;

  [[nodiscard]] bool enabled() const {
    return period_acts > 0 &&
           (retention_rate > 0.0 || transient_rate > 0.0 || stuck_cells > 0 ||
            lock_evict_rate > 0.0 || remap_fault_rate > 0.0 ||
            checksum_fault_rate > 0.0);
  }

  /// Throws dl::Error when a rate is outside [0, 1] (geometry-dependent
  /// checks — target range vs total rows — happen in the injector ctor).
  void validate() const;
};

/// Injection outcome counters, harvested into campaign results.
struct FaultStats {
  std::uint64_t events = 0;            ///< injection events fired
  std::uint64_t retention_faults = 0;  ///< bits discharged (changed 1 -> 0)
  std::uint64_t transient_faults = 0;  ///< bits flipped
  std::uint64_t stuck_cells = 0;       ///< stuck-at cells installed
  std::uint64_t stuck_overrides = 0;   ///< re-asserts that undid a write
  std::uint64_t lock_evictions = 0;    ///< lock-table entries dropped
  std::uint64_t remap_faults = 0;      ///< spurious indirection swaps
  std::uint64_t checksum_faults = 0;   ///< checksum storage bits flipped

  template <typename F>
  static void fields(F&& f) {
    f({"events"}, &FaultStats::events);
    f({"retention_faults"}, &FaultStats::retention_faults);
    f({"transient_faults"}, &FaultStats::transient_faults);
    f({"stuck_cells"}, &FaultStats::stuck_cells);
    f({"stuck_overrides"}, &FaultStats::stuck_overrides);
    f({"lock_evictions"}, &FaultStats::lock_evictions);
    f({"remap_faults"}, &FaultStats::remap_faults);
    f({"checksum_faults"}, &FaultStats::checksum_faults);
  }
};

class FaultInjector final : public dl::dram::ActivationListener {
 public:
  /// Validates the spec against the controller's geometry, picks the
  /// stuck-at cells, and asserts them once (the pre-campaign weak-cell
  /// state).  Attach metadata targets before the first activation.
  FaultInjector(dl::dram::Controller& ctrl, const FaultSpec& spec);

  /// Lock-table the lock-evict fault targets (nullptr detaches).
  void attach_lock_table(dl::defense::LockTable* table) { table_ = table; }

  /// Checksum storage the checksum fault targets (nullptr detaches).
  void attach_checksums(dl::integrity::BlockChecksums* checksums) {
    checksums_ = checksums;
  }

  void on_activate(dl::dram::GlobalRowId physical_row, Picoseconds now) override;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // -- chaos-campaign escalation (scenario::ChaosSpec) -----------------------
  // Both mutators are called serially between serve rounds (never from
  // on_activate), in channel order, so the injector stream stays
  // deterministic for any DL_THREADS value.

  /// Tightens (or relaxes) the injection cadence mid-campaign.
  void set_period_acts(std::uint64_t period_acts);

  /// Installs `count` additional stuck-at cells, drawn from the injector's
  /// own RNG stream, and asserts them immediately — the chaos storm's
  /// permanent-fault accumulation.
  void add_stuck_cells(std::size_t count);

 private:
  struct StuckCell {
    dl::dram::GlobalRowId row = 0;
    std::uint32_t byte = 0;
    unsigned bit = 0;
    bool value = false;  ///< the level the cell is stuck at
  };

  dl::dram::Controller& ctrl_;
  FaultSpec spec_;
  dl::Rng rng_;
  dl::defense::LockTable* table_ = nullptr;
  dl::integrity::BlockChecksums* checksums_ = nullptr;
  std::vector<StuckCell> stuck_;
  std::uint64_t acts_ = 0;
  bool injecting_ = false;
  FaultStats stats_;

  [[nodiscard]] dl::dram::GlobalRowId pick_row();
  void assert_stuck_cells();
  void inject_event();
};

}  // namespace dl::faults
