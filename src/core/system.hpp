// core::Fabric: the top-level facade of the library — a sharded
// multi-channel DRAM fabric.
//
// A Fabric owns N identical channels; each channel is a core::Channel (its
// own Controller, RowHammer disturbance model and optional defense state:
// DRAM-Locker lock table / SHADOW shuffler) plus an OS-lite frame
// allocator.  A fabric-global physical address space interleaves
// across the channels under SystemConfig::interleave (dram::FabricMapper),
// and multi-tenant traffic fans out over dl::parallel with one FR-FCFS
// engine per channel:
//
//   core::Fabric fabric(SystemConfig{...});       // validated, throws on
//   fabric.enable_locker();                       // nonsense configs
//   fabric.protect_physical_range(base, bytes);   // fabric-global addrs
//   auto report = fabric.serve(tenants);          // sharded across channels
//
// API shape (PR 8 redesign): mutation goes through the facade (read /
// write / hammer / hammer_attack / serve / protect_*), introspection goes
// through the read-only FabricView / ChannelView hierarchy — there is no
// mutable escape hatch to a channel's controller.  Experiment drivers that
// predate the fabric (attack::WeightBinding, attack::PageTableAttack,
// attack::HammerFlipGate, sys::AddressSpace) are constructed through the
// make_* factories, which wire them to the owning channel internally; the
// OS-lite process model stays channel-local (one process's frames and page
// tables live on one channel), matching the paper's single-DIMM victim.
//
// Determinism contract: all stochastic state derives from SystemConfig::
// seed (channel components split the root RNG in channel order at
// construction; serve() re-derives tenant sub-streams per channel), and
// serve() merges per-channel reports in channel order — results are
// byte-identical for any DL_THREADS value.  At channels = 1 the fabric is
// bit-compatible with the pre-fabric single-channel system.
#pragma once

#include <memory>
#include <vector>

#include "attack/hammer_gate.hpp"
#include "attack/pta.hpp"
#include "attack/weight_binding.hpp"
#include "common/rng.hpp"
#include "core/channel.hpp"
#include "dram/fabric.hpp"
#include "rowhammer/attacker.hpp"
#include "sys/address_space.hpp"
#include "sys/allocator.hpp"
#include "traffic/engine.hpp"

namespace dl::core {

using dl::dram::ChannelId;

struct SystemConfig {
  /// Per-channel geometry; `channels` is the fabric's channel count (each
  /// channel owns an identical single-channel stack of ranks x banks).
  dl::dram::Geometry geometry{
      .channels = 1,
      .ranks = 1,
      .banks = 16,
      .subarrays_per_bank = 64,
      .rows_per_subarray = 1024,
      .row_bytes = 8192,
  };
  dl::dram::Timing timing = dl::dram::ddr4_2400();
  dl::dram::MapScheme map_scheme = dl::dram::MapScheme::kRowBankColumn;
  dl::dram::InterleavePolicy interleave =
      dl::dram::InterleavePolicy::kRowBlocked;
  dl::rowhammer::DisturbanceConfig disturbance{};
  /// Opt-in cycle-approximate timing engine, applied to every channel
  /// controller (see dram::TimingSpec).  Off by default: reports stay
  /// byte-identical to the analytic-latency fabric.
  dl::dram::TimingSpec timing_model{};
  std::uint64_t seed = 0xD7A871;
};

/// Validates a SystemConfig, throwing dl::Error with an explicit message
/// (channel count vs. rows, degenerate geometry) instead of clamping.
/// The Fabric constructor calls this; campaign runners surface the message
/// as status:"failed".
void validate(const SystemConfig& config);

/// Read-only view of one channel: topology, counters, clocks, mapper.
/// Everything a scheduler, report, or test may *query*; mutation goes
/// through the Fabric facade.
class ChannelView {
 public:
  ChannelView(const Channel& ch, ChannelId id) : ch_(&ch), id_(id) {}

  [[nodiscard]] ChannelId id() const { return id_; }
  [[nodiscard]] const dl::dram::Geometry& geometry() const {
    return ch_->ctrl.geometry();
  }
  [[nodiscard]] dl::dram::Topology topology() const {
    return ch_->ctrl.topology();
  }
  [[nodiscard]] const dl::dram::AddressMapper& mapper() const {
    return ch_->ctrl.mapper();
  }
  [[nodiscard]] const dl::dram::RowIndirection& indirection() const {
    return ch_->ctrl.indirection();
  }
  [[nodiscard]] const dl::dram::CounterBlock& counters() const {
    return ch_->ctrl.counters();
  }
  [[nodiscard]] Picoseconds now() const { return ch_->ctrl.now(); }
  [[nodiscard]] Picoseconds defense_time() const {
    return ch_->ctrl.defense_time();
  }
  [[nodiscard]] std::uint64_t refresh_windows() const {
    return ch_->ctrl.refresh_windows();
  }
  [[nodiscard]] const dl::rowhammer::DisturbanceModel& disturbance() const {
    return ch_->disturbance;
  }
  [[nodiscard]] const dl::defense::DramLocker* locker() const {
    return ch_->locker.get();
  }
  [[nodiscard]] const dl::defense::Shadow* shadow() const {
    return ch_->shadow.get();
  }

 private:
  const Channel* ch_;
  ChannelId id_;
};

/// Read-only view of the whole fabric: per-channel views plus fabric-wide
/// aggregates.
class FabricView {
 public:
  FabricView(const Channels& chs, const dl::dram::FabricMapper& mapper)
      : chs_(&chs), mapper_(&mapper) {}

  [[nodiscard]] std::uint32_t channels() const {
    return static_cast<std::uint32_t>(chs_->size());
  }
  [[nodiscard]] ChannelView channel(ChannelId c) const {
    DL_REQUIRE(c < chs_->size(), "channel out of range");
    return ChannelView(*(*chs_)[c], c);
  }
  [[nodiscard]] const dl::dram::FabricMapper& map() const { return *mapper_; }

  /// Sum of every channel's typed counters (enum order).
  [[nodiscard]] dl::dram::CounterBlock counter_totals() const;

 private:
  const Channels* chs_;
  const dl::dram::FabricMapper* mapper_;
};

/// serve() outcome: one TrafficReport per channel (channel-local tenant
/// stats, full roster on every channel) plus the element-wise merged
/// fabric-wide report.  merged.elapsed is the slowest channel's clock (the
/// steady-state makespan); per-tenant SLO quantiles come from the merged
/// latency histograms.
struct FabricReport {
  std::vector<dl::traffic::TrafficReport> channels;
  dl::traffic::TrafficReport merged;
};

class Fabric {
 public:
  explicit Fabric(SystemConfig config = {});

  // Non-copyable/movable: components hold references into each other.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // -- topology & views -------------------------------------------------------

  [[nodiscard]] std::uint32_t channels() const {
    return static_cast<std::uint32_t>(channels_.size());
  }
  [[nodiscard]] FabricView view() const {
    return FabricView(channels_, fabric_map_);
  }
  [[nodiscard]] ChannelView channel(ChannelId c = 0) const {
    return view().channel(c);
  }
  [[nodiscard]] const dl::dram::FabricMapper& fabric_map() const {
    return fabric_map_;
  }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  // -- fabric-global memory operations ----------------------------------------
  // Addresses and row ids are fabric-global; the mapper routes them to the
  // owning channel's controller (gates, listeners, and defense mitigation
  // traffic stay on the accounted path).

  dl::dram::AccessResult read(dl::dram::PhysAddr addr,
                              std::span<std::uint8_t> out,
                              bool can_unlock = false);
  dl::dram::AccessResult write(dl::dram::PhysAddr addr,
                               std::span<const std::uint8_t> in,
                               bool can_unlock = false);
  dl::dram::AccessResult hammer(dl::dram::PhysAddr addr,
                                bool can_unlock = false);

  /// Fabric-global physical address of the first byte of a fabric row.
  [[nodiscard]] dl::dram::PhysAddr row_base(
      dl::dram::GlobalRowId fabric_row) const;

  /// Fabric-global logical row holding a fabric-global physical address.
  [[nodiscard]] dl::dram::GlobalRowId row_of(
      dl::dram::PhysAddr fabric_addr) const;

  /// Advances every channel's clock (idle gaps between workload phases).
  void advance_time(Picoseconds delta);

  // -- experiment drivers -----------------------------------------------------

  /// Rows an attacker hammers to disturb `fabric_victim_row` (fabric-global
  /// ids; adjacency is channel-local, so all aggressors share the victim's
  /// channel).
  [[nodiscard]] std::vector<dl::dram::GlobalRowId> aggressors_for(
      dl::dram::GlobalRowId fabric_victim_row,
      dl::rowhammer::HammerPattern pattern) const;

  /// Runs a RowHammer campaign against a fabric row on its owning channel.
  dl::rowhammer::HammerResult hammer_attack(
      dl::dram::GlobalRowId fabric_victim_row,
      dl::rowhammer::HammerPattern pattern, std::uint64_t act_budget,
      std::uint64_t stop_after_flips = 0);

  /// Mutable disturbance-model access (experiment surface: flip logs,
  /// callbacks); per channel.
  [[nodiscard]] dl::rowhammer::DisturbanceModel& disturbance(
      ChannelId c = 0);
  [[nodiscard]] dl::sys::FrameAllocator& frames(ChannelId c = 0);

  /// Creates a fresh address space (victim process, attacker process, ...)
  /// on one channel — the OS-lite layer is channel-local.
  [[nodiscard]] std::unique_ptr<dl::sys::AddressSpace> make_address_space(
      ChannelId c = 0);

  /// Attack-driver factories: construct the pre-fabric drivers against the
  /// owning channel's internals, so callers never touch a controller.
  [[nodiscard]] dl::attack::WeightBinding make_weight_binding(
      dl::sys::AddressSpace& space, dl::nn::QuantizedModel& qmodel,
      dl::sys::VirtAddr base_va, ChannelId c = 0);
  [[nodiscard]] dl::attack::HammerFlipGate make_hammer_gate(
      dl::attack::WeightBinding& binding, std::uint64_t act_budget,
      dl::rowhammer::HammerPattern pattern =
          dl::rowhammer::HammerPattern::kDoubleSided,
      ChannelId c = 0);
  [[nodiscard]] dl::attack::PageTableAttack make_page_table_attack(
      dl::attack::PtaConfig config = {}, ChannelId c = 0);

  /// A derived deterministic RNG stream for experiment drivers.
  [[nodiscard]] dl::Rng make_rng();

  // -- defense management -----------------------------------------------------

  /// Installs DRAM-Locker as every channel's access gate (one lock table
  /// per channel, split RNG streams).  Returns channel 0's instance.
  dl::defense::DramLocker& enable_locker(
      dl::defense::DramLockerConfig config = {});

  /// Installs the SHADOW baseline on every channel (listener; no gate).
  dl::defense::Shadow& enable_shadow(dl::defense::ShadowConfig config = {});

  /// Removes every channel's active gate (keeps listeners registered — the
  /// controller owns no listener lifetime; call before destroying a
  /// defense).
  void disable_gate();

  [[nodiscard]] dl::defense::DramLocker* locker(ChannelId c = 0) {
    return channel_at(c).locker.get();
  }
  [[nodiscard]] dl::defense::Shadow* shadow(ChannelId c = 0) {
    return channel_at(c).shadow.get();
  }

  // -- traffic ----------------------------------------------------------------

  /// Runs a fabric-level multi-tenant traffic mix: tenants are declared in
  /// fabric row coordinates, sharded per channel (traffic::shard_tenants),
  /// and one core::run_round drains each channel's FR-FCFS engine in
  /// parallel (default admission, no scrub tenant).  Active defenses stay
  /// on the accounted path.  Throws dl::Error on a roster that violates
  /// the fabric layout (range beyond the row space, invalid channel pin).
  FabricReport serve(std::vector<dl::traffic::StreamSpec> tenants,
                     const dl::traffic::SchedulerConfig& scheduler = {});

  // -- protection API ---------------------------------------------------------

  /// Locks the neighbours of every fabric row overlapped by
  /// [base, base+bytes).  Requires an enabled locker.  Returns rows locked.
  std::size_t protect_physical_range(dl::dram::PhysAddr base,
                                     std::uint64_t bytes);

  /// Locks the neighbours of the rows backing `bytes` of an address space
  /// starting at `va` (e.g. a weight buffer or a page-table page); the
  /// space lives on channel `c` (see make_address_space).  Returns rows
  /// locked.
  std::size_t protect_virtual_range(dl::sys::AddressSpace& space,
                                    dl::sys::VirtAddr va, std::uint64_t bytes,
                                    ChannelId c = 0);

 private:
  SystemConfig config_;
  dl::dram::Geometry channel_geometry_;  ///< config_.geometry at channels=1
  dl::dram::FabricMapper fabric_map_;
  dl::Rng rng_;
  Channels channels_;
  /// OS-lite frame allocator per channel (the process model is
  /// fabric-only; campaigns have none).
  std::vector<dl::sys::FrameAllocator> frames_;

  [[nodiscard]] Channel& channel_at(ChannelId c);
  [[nodiscard]] const Channel& channel_at(ChannelId c) const;

  /// Channel-local protect of one channel-local logical row range walk.
  std::size_t protect_local_range(ChannelId c, dl::dram::PhysAddr local_base,
                                  std::uint64_t bytes);
};

}  // namespace dl::core
