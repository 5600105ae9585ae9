#include "core/system.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "traffic/sharding.hpp"

namespace dl::core {

namespace {

/// Per-channel geometry of a fabric config: the channel count lives at the
/// fabric level, each channel is a single-channel stack.
dl::dram::Geometry channel_geometry_of(const SystemConfig& config) {
  dl::dram::Geometry g = config.geometry;
  g.channels = 1;
  return g;
}

}  // namespace

void validate(const SystemConfig& config) {
  const auto& g = config.geometry;
  if (g.channels == 0) {
    throw dl::Error("SystemConfig: geometry.channels must be >= 1");
  }
  if (g.channels > 64) {
    std::string msg = "SystemConfig: geometry.channels = ";
    msg += std::to_string(g.channels);
    msg += " exceeds the fabric limit of 64 channels";
    throw dl::Error(msg);
  }
  if (g.ranks == 0 || g.banks == 0 || g.subarrays_per_bank == 0 ||
      g.rows_per_subarray == 0) {
    throw dl::Error(
        "SystemConfig: every geometry dimension (ranks, banks, "
        "subarrays_per_bank, rows_per_subarray) must be >= 1");
  }
  if (g.row_bytes == 0) {
    throw dl::Error("SystemConfig: geometry.row_bytes must be >= 1");
  }
  if (config.interleave == dl::dram::InterleavePolicy::kRowRoundRobin &&
      g.channels > 1 && g.rows_per_subarray < 2 * g.channels) {
    // Round-robin spaces a channel's consecutive fabric rows N apart, so a
    // subarray shorter than 2N cannot hold both distance-1 neighbours of
    // any victim — every hammer campaign would silently degenerate.
    std::string msg = "SystemConfig: row-round-robin interleave over ";
    msg += std::to_string(g.channels);
    msg += " channels needs rows_per_subarray >= ";
    msg += std::to_string(2 * g.channels);
    msg += " (got ";
    msg += std::to_string(g.rows_per_subarray);
    msg += ")";
    throw dl::Error(msg);
  }
}

dl::dram::CounterBlock FabricView::counter_totals() const {
  dl::dram::CounterBlock total;
  for (const auto& ch : *chs_) {
    for (std::size_t i = 0; i < dl::dram::kNumCounters; ++i) {
      const auto c = static_cast<dl::dram::Counter>(i);
      total.add(c, ch->ctrl.counters().value(c));
    }
  }
  return total;
}

Fabric::Fabric(SystemConfig config)
    : config_(config),
      channel_geometry_(channel_geometry_of(config)),
      fabric_map_((validate(config), config.geometry.channels),
                  channel_geometry_.total_rows(), config.geometry.row_bytes,
                  config.interleave),
      rng_(config.seed) {
  channels_.reserve(config_.geometry.channels);
  frames_.reserve(config_.geometry.channels);
  for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
    // One split per channel in channel order: channel 0 of any fabric draws
    // the same stream the pre-fabric single-channel system drew.
    channels_.push_back(std::make_unique<Channel>(
        channel_geometry_, config_.timing, config_.timing_model,
        config_.disturbance, rng_.split(), config_.map_scheme));
    frames_.emplace_back(channel_geometry_);
  }
}

Channel& Fabric::channel_at(ChannelId c) {
  DL_REQUIRE(c < channels_.size(), "channel out of range");
  return *channels_[c];
}

const Channel& Fabric::channel_at(ChannelId c) const {
  DL_REQUIRE(c < channels_.size(), "channel out of range");
  return *channels_[c];
}

// -- fabric-global memory operations ------------------------------------------

dl::dram::AccessResult Fabric::read(dl::dram::PhysAddr addr,
                                    std::span<std::uint8_t> out,
                                    bool can_unlock) {
  const auto ga = fabric_map_.decode(addr);
  if (channels() > 1) {
    DL_REQUIRE(ga.byte + out.size() <= fabric_map_.row_bytes(),
               "fabric access must not cross a row-interleave boundary");
  }
  return channel_at(ga.channel).ctrl.read(fabric_map_.local_addr(ga), out,
                                         can_unlock);
}

dl::dram::AccessResult Fabric::write(dl::dram::PhysAddr addr,
                                     std::span<const std::uint8_t> in,
                                     bool can_unlock) {
  const auto ga = fabric_map_.decode(addr);
  if (channels() > 1) {
    DL_REQUIRE(ga.byte + in.size() <= fabric_map_.row_bytes(),
               "fabric access must not cross a row-interleave boundary");
  }
  return channel_at(ga.channel).ctrl.write(fabric_map_.local_addr(ga), in,
                                          can_unlock);
}

dl::dram::AccessResult Fabric::hammer(dl::dram::PhysAddr addr,
                                      bool can_unlock) {
  const auto ga = fabric_map_.decode(addr);
  return channel_at(ga.channel).ctrl.hammer(fabric_map_.local_addr(ga),
                                            can_unlock);
}

dl::dram::PhysAddr Fabric::row_base(dl::dram::GlobalRowId fabric_row) const {
  const ChannelId c = fabric_map_.channel_of(fabric_row);
  const dl::dram::GlobalRowId local = fabric_map_.local_row(fabric_row);
  // The channel's address map decides where the logical row lives in the
  // channel-local address space; re-encode that slab as a fabric address.
  const dl::dram::PhysAddr local_base =
      channel_at(c).ctrl.mapper().row_base(local);
  const auto slab =
      static_cast<dl::dram::GlobalRowId>(local_base / fabric_map_.row_bytes());
  return fabric_map_.encode(dl::dram::GlobalAddress{
      .channel = c,
      .row = slab,
      .byte = static_cast<std::uint32_t>(local_base %
                                         fabric_map_.row_bytes())});
}

dl::dram::GlobalRowId Fabric::row_of(dl::dram::PhysAddr fabric_addr) const {
  const auto ga = fabric_map_.decode(fabric_addr);
  const dl::dram::GlobalRowId local =
      channel_at(ga.channel).ctrl.mapper().row_of(fabric_map_.local_addr(ga));
  return fabric_map_.fabric_row(ga.channel, local);
}

void Fabric::advance_time(Picoseconds delta) {
  for (auto& ch : channels_) ch->ctrl.advance_time(delta);
}

// -- experiment drivers -------------------------------------------------------

std::vector<dl::dram::GlobalRowId> Fabric::aggressors_for(
    dl::dram::GlobalRowId fabric_victim_row,
    dl::rowhammer::HammerPattern pattern) const {
  const ChannelId c = fabric_map_.channel_of(fabric_victim_row);
  auto rows = dl::rowhammer::aggressor_rows(
      channel_geometry_, fabric_map_.local_row(fabric_victim_row), pattern);
  for (auto& row : rows) row = fabric_map_.fabric_row(c, row);
  return rows;
}

dl::rowhammer::HammerResult Fabric::hammer_attack(
    dl::dram::GlobalRowId fabric_victim_row,
    dl::rowhammer::HammerPattern pattern, std::uint64_t act_budget,
    std::uint64_t stop_after_flips) {
  const ChannelId c = fabric_map_.channel_of(fabric_victim_row);
  auto& ch = channel_at(c);
  dl::rowhammer::HammerAttacker attacker(ch.ctrl, ch.disturbance);
  return attacker.attack(fabric_map_.local_row(fabric_victim_row), pattern,
                         act_budget, stop_after_flips);
}

dl::rowhammer::DisturbanceModel& Fabric::disturbance(ChannelId c) {
  return channel_at(c).disturbance;
}

dl::sys::FrameAllocator& Fabric::frames(ChannelId c) {
  DL_REQUIRE(c < frames_.size(), "channel out of range");
  return frames_[c];
}

std::unique_ptr<dl::sys::AddressSpace> Fabric::make_address_space(
    ChannelId c) {
  return std::make_unique<dl::sys::AddressSpace>(channel_at(c).ctrl,
                                                 frames(c));
}

dl::attack::WeightBinding Fabric::make_weight_binding(
    dl::sys::AddressSpace& space, dl::nn::QuantizedModel& qmodel,
    dl::sys::VirtAddr base_va, ChannelId c) {
  return dl::attack::WeightBinding(channel_at(c).ctrl, space, qmodel,
                                   base_va);
}

dl::attack::HammerFlipGate Fabric::make_hammer_gate(
    dl::attack::WeightBinding& binding, std::uint64_t act_budget,
    dl::rowhammer::HammerPattern pattern, ChannelId c) {
  auto& ch = channel_at(c);
  return dl::attack::HammerFlipGate(ch.ctrl, ch.disturbance, binding,
                                    act_budget, pattern);
}

dl::attack::PageTableAttack Fabric::make_page_table_attack(
    dl::attack::PtaConfig config, ChannelId c) {
  auto& ch = channel_at(c);
  return dl::attack::PageTableAttack(ch.ctrl, ch.disturbance, frames(c),
                                     config, rng_.split());
}

dl::Rng Fabric::make_rng() { return rng_.split(); }

// -- defense management -------------------------------------------------------

dl::defense::DramLocker& Fabric::enable_locker(
    dl::defense::DramLockerConfig config) {
  DL_REQUIRE(channels_.front()->locker == nullptr, "locker already enabled");
  for (auto& ch : channels_) {
    ch->locker = std::make_unique<dl::defense::DramLocker>(ch->ctrl, config,
                                                           rng_.split());
    ch->ctrl.set_gate(ch->locker.get());
  }
  return *channels_.front()->locker;
}

dl::defense::Shadow& Fabric::enable_shadow(dl::defense::ShadowConfig config) {
  DL_REQUIRE(channels_.front()->shadow == nullptr, "shadow already enabled");
  for (auto& ch : channels_) {
    ch->shadow = std::make_unique<dl::defense::Shadow>(ch->ctrl, config,
                                                       rng_.split());
    ch->ctrl.add_listener(ch->shadow.get());
  }
  return *channels_.front()->shadow;
}

void Fabric::disable_gate() {
  for (auto& ch : channels_) ch->ctrl.set_gate(nullptr);
}

// -- traffic ------------------------------------------------------------------

FabricReport Fabric::serve(std::vector<dl::traffic::StreamSpec> tenants,
                           const dl::traffic::SchedulerConfig& scheduler) {
  Rosters rosters = dl::traffic::shard_tenants(fabric_map_, tenants);
  FabricReport report;
  report.channels.resize(channels_.size());
  // Each round report lands in its (empty) channel total as is.  Every
  // channel carries the full tenant roster (stubs where a tenant has no
  // local share), so the merge is element-wise.
  run_round(channels_, rosters, scheduler, {}, tenants.size(),
            report.channels);
  report.merged = merge_channels(report.channels);
  return report;
}

// -- protection API -----------------------------------------------------------

std::size_t Fabric::protect_local_range(ChannelId c,
                                        dl::dram::PhysAddr local_base,
                                        std::uint64_t bytes) {
  auto& ch = channel_at(c);
  DL_REQUIRE(ch.locker != nullptr, "enable_locker() first");
  DL_REQUIRE(bytes > 0, "range must be non-empty");
  const std::uint32_t row_bytes = channel_geometry_.row_bytes;
  std::size_t locked = 0;
  // Walk the overlapped rows through the mapper to stay scheme-agnostic.
  for (dl::dram::PhysAddr addr = local_base - (local_base % row_bytes);
       addr < local_base + bytes; addr += row_bytes) {
    locked += ch.locker->protect_data_row(ch.ctrl.mapper().row_of(addr));
  }
  return locked;
}

std::size_t Fabric::protect_physical_range(dl::dram::PhysAddr base,
                                           std::uint64_t bytes) {
  DL_REQUIRE(channels_.front()->locker != nullptr, "enable_locker() first");
  DL_REQUIRE(bytes > 0, "range must be non-empty");
  const std::uint32_t row_bytes = fabric_map_.row_bytes();
  std::size_t locked = 0;
  // Walk the overlapped fabric row slabs; each slab lands wholly on one
  // channel, whose own mapper picks the logical row.
  for (dl::dram::PhysAddr addr = base - (base % row_bytes);
       addr < base + bytes; addr += row_bytes) {
    const auto ga = fabric_map_.decode(addr);
    auto& ch = channel_at(ga.channel);
    locked += ch.locker->protect_data_row(
        ch.ctrl.mapper().row_of(fabric_map_.local_addr(ga)));
  }
  return locked;
}

std::size_t Fabric::protect_virtual_range(dl::sys::AddressSpace& space,
                                          dl::sys::VirtAddr va,
                                          std::uint64_t bytes, ChannelId c) {
  DL_REQUIRE(channel_at(c).locker != nullptr, "enable_locker() first");
  DL_REQUIRE(dl::sys::page_offset(va) == 0, "va must be page-aligned");
  std::size_t locked = 0;
  for (std::uint64_t off = 0; off < bytes; off += dl::sys::kPageBytes) {
    const auto pte = space.walk(va + off);
    DL_REQUIRE(pte.has_value(), "virtual range must be mapped");
    const dl::dram::PhysAddr base = pte->pfn * dl::sys::kPageBytes;
    const std::uint64_t len =
        std::min<std::uint64_t>(dl::sys::kPageBytes, bytes - off);
    locked += protect_local_range(c, base, len);
  }
  return locked;
}

}  // namespace dl::core
