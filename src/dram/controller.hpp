// Trace-driven DRAM memory controller.
//
// The controller executes logical accesses against the physical DRAM state:
//   physical address --(AddressMapper)--> logical row
//                    --(AccessGate: defense may deny)-->
//                    --(RowIndirection)--> physical row
//                    --(bank row-buffer policy, timing)--> data
// Every physical ACT is reported to registered ActivationListeners — the
// RowHammer disturbance model and counter-based defenses subscribe there.
// Defense mechanisms issue their mitigation traffic (RowClone swaps, targeted
// refreshes) through the same controller so their latency is accounted.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dram/address_map.hpp"
#include "dram/command.hpp"
#include "dram/counters.hpp"
#include "dram/data_store.hpp"
#include "dram/indirection.hpp"
#include "dram/timing.hpp"
#include "dram/timing_model.hpp"
#include "dram/topology.hpp"
#include "dram/types.hpp"

namespace dl::dram {

class Controller;

/// Observer of physical row activations (RowHammer model, counter trackers).
class ActivationListener {
 public:
  virtual ~ActivationListener() = default;

  /// A physical row was activated at time `now`.
  virtual void on_activate(GlobalRowId physical_row, Picoseconds now) = 0;

  /// A refresh window (tREFW) elapsed; per-window disturbance resets here.
  virtual void on_refresh_window(Picoseconds now) { (void)now; }

  /// A row was explicitly refreshed (defense-issued targeted refresh).
  virtual void on_row_refresh(GlobalRowId physical_row) { (void)physical_row; }
};

/// Request metadata a gate sees before a logical access proceeds.
struct AccessRequest {
  GlobalRowId logical_row = 0;
  std::uint32_t byte = 0;
  std::uint32_t len = 0;
  bool is_write = false;
  /// True when the requester runs with DRAM-Locker ISA support, i.e. the
  /// legitimate program that may trigger unlock SWAPs.  Attacker processes
  /// are unprivileged and cannot unlock.
  bool can_unlock = false;
};

enum class GateDecision : std::uint8_t {
  kAllow,  ///< proceed with the access
  kDeny,   ///< skip the instruction (locked row, no unlock capability)
};

/// Pre-access hook; DRAM-Locker's lock-table implements this.
class AccessGate {
 public:
  virtual ~AccessGate() = default;

  /// May issue mitigation traffic through `ctrl` (e.g. an unlock SWAP)
  /// before returning a decision.
  virtual GateDecision before_access(const AccessRequest& req,
                                     Controller& ctrl) = 0;
};

/// Result of a logical read/write.
struct AccessResult {
  bool granted = true;
  bool row_hit = false;
  Picoseconds latency = 0;
};

class Controller {
 public:
  Controller(const Geometry& geometry, const Timing& timing,
             MapScheme scheme = MapScheme::kRowBankColumn);

  [[nodiscard]] const Geometry& geometry() const { return geometry_; }
  [[nodiscard]] const Timing& timing() const { return timing_; }
  [[nodiscard]] const AddressMapper& mapper() const { return mapper_; }
  [[nodiscard]] DataStore& data() { return data_; }
  [[nodiscard]] const DataStore& data() const { return data_; }
  [[nodiscard]] RowIndirection& indirection() { return indirection_; }
  [[nodiscard]] const RowIndirection& indirection() const { return indirection_; }

  // -- wiring ---------------------------------------------------------------

  void add_listener(ActivationListener* listener);
  void set_gate(AccessGate* gate);  ///< at most one gate; nullptr clears

  // -- logical accesses (what CPU/attacker traffic issues) -------------------

  /// Reads `out.size()` bytes at physical address `addr`.
  AccessResult read(PhysAddr addr, std::span<std::uint8_t> out,
                    bool can_unlock = false);

  /// Writes `in.size()` bytes at physical address `addr`.
  AccessResult write(PhysAddr addr, std::span<const std::uint8_t> in,
                     bool can_unlock = false);

  /// Row-boundary-aware bulk transfers: chunk the span at row boundaries and
  /// issue one access per row.  `granted` is true only if every chunk was
  /// granted; latency aggregates across chunks; `row_hit` is true if *any*
  /// chunk hit an open row buffer (any-hit semantics — a bulk transfer is a
  /// partial hit as soon as one of its row accesses was).
  AccessResult read_bulk(PhysAddr addr, std::span<std::uint8_t> out,
                         bool can_unlock = false);
  AccessResult write_bulk(PhysAddr addr, std::span<const std::uint8_t> in,
                          bool can_unlock = false);

  /// Row activation without data transfer — the attacker's hammer primitive.
  /// Subject to the access gate like any other access.
  AccessResult hammer(PhysAddr addr, bool can_unlock = false);

  // -- physical operations (defense mitigation traffic) ----------------------

  /// Intra-subarray RowClone copy: contents of physical row `src` overwrite
  /// physical row `dst`.  When `corrupt` is true the copy completes but the
  /// destination receives corrupted data in one random bit — the model for
  /// an unsuccessful SWAP step under process variation (Sec. IV-D).
  void row_clone(GlobalRowId src_phys, GlobalRowId dst_phys,
                 bool corrupt = false, std::uint32_t corrupt_byte = 0,
                 unsigned corrupt_bit = 0);

  /// Defense-issued targeted refresh of a physical row (resets disturbance).
  void refresh_row(GlobalRowId physical_row);

  // -- timing engine ---------------------------------------------------------

  /// Switches between the legacy analytic latencies (spec.enabled == false,
  /// the default — byte-identical to the pre-timing controller) and the
  /// cycle-approximate TimingModel.  Enabling mid-run aligns the model to
  /// the current clock (first REF due one tREFI from now()).
  void set_timing_spec(const TimingSpec& spec);

  [[nodiscard]] bool timed() const { return timing_model_ != nullptr; }

  /// The live timing engine, or nullptr when running analytic latencies.
  [[nodiscard]] const TimingModel* timing_model() const {
    return timing_model_.get();
  }

  // -- time -----------------------------------------------------------------

  [[nodiscard]] Picoseconds now() const { return now_; }

  /// Advances simulated time (e.g. idle gaps between workload phases).
  void advance_time(Picoseconds delta);

  /// Marks subsequently issued operations as defense overhead until release.
  /// Used via DefenseScope; nesting is allowed.
  void push_defense_scope();
  void pop_defense_scope();

  // -- row-buffer topology ----------------------------------------------------

  /// Read-only bank/row-buffer topology view.  Schedulers sitting above the
  /// controller (dl::traffic FR-FCFS) query bank structure and open-row
  /// state through this; the view stays valid (and live) for the
  /// controller's lifetime.
  [[nodiscard]] Topology topology() const {
    return Topology(open_row_, rows_per_bank_, total_rows_);
  }

  // -- introspection ----------------------------------------------------------

  /// The typed hot-path counters (enum-indexed; see dram/counters.hpp).
  /// Defense/integrity mechanisms account their controller-level operation
  /// classes here.
  [[nodiscard]] CounterBlock& counters() { return counters_; }
  [[nodiscard]] const CounterBlock& counters() const { return counters_; }
  [[nodiscard]] CommandTrace& trace() { return trace_; }

  /// Total time consumed by defense-scoped operations.
  [[nodiscard]] Picoseconds defense_time() const { return defense_time_; }

  /// Number of refresh windows that have fully elapsed.
  [[nodiscard]] std::uint64_t refresh_windows() const { return windows_; }

 private:
  Geometry geometry_;
  Timing timing_;
  AddressMapper mapper_;
  DataStore data_;
  RowIndirection indirection_;
  std::vector<ActivationListener*> listeners_;
  AccessGate* gate_ = nullptr;

  std::vector<GlobalRowId> open_row_;  ///< per bank; kNoRow if closed

  // Cached geometry products so the hot path never re-multiplies them.
  std::uint64_t rows_per_bank_ = 1;
  std::uint64_t total_rows_ = 0;

  Picoseconds now_ = 0;
  Picoseconds window_end_;
  std::uint64_t windows_ = 0;
  int defense_depth_ = 0;
  Picoseconds defense_time_ = 0;

  CounterBlock counters_;
  CommandTrace trace_;
  std::unique_ptr<TimingModel> timing_model_;  ///< null = analytic latencies

  [[nodiscard]] std::size_t bank_index(const RowAddress& a) const;

  /// Flat bank of a physical row (hot path; see Topology::bank_of_row).
  [[nodiscard]] std::size_t bank_of(GlobalRowId physical_row) const {
    DL_REQUIRE(physical_row < total_rows_, "row out of range");
    return static_cast<std::size_t>(physical_row / rows_per_bank_);
  }

  /// Opens `phys` in its bank (PRE+ACT on miss); returns row-buffer hit and
  /// accumulates latency.  Notifies activation listeners on a real ACT.
  bool open_row(GlobalRowId phys, Picoseconds& latency);

  void elapse(Picoseconds delta);
  void notify_activate(GlobalRowId phys);

  /// Timed mode: issue REFs due at now_ and close all rows if any fired.
  void timed_catch_up();
  /// Timed mode: account the in-command REFs and the conflict PRE of `t`
  /// (ACT accounting stays at the call site — access/hammer/clone differ).
  void timed_commit(const TimedAccess& t, GlobalRowId prev);
  AccessResult access(PhysAddr addr, bool is_write, std::uint32_t len,
                      std::span<std::uint8_t> out,
                      std::span<const std::uint8_t> in, bool can_unlock,
                      bool data_transfer);
};

/// RAII helper marking a block of controller traffic as defense overhead.
class DefenseScope {
 public:
  explicit DefenseScope(Controller& ctrl) : ctrl_(ctrl) {
    ctrl_.push_defense_scope();
  }
  ~DefenseScope() { ctrl_.pop_defense_scope(); }
  DefenseScope(const DefenseScope&) = delete;
  DefenseScope& operator=(const DefenseScope&) = delete;

 private:
  Controller& ctrl_;
};

}  // namespace dl::dram
