// core::Channel: one DRAM channel's component stack, shared by the
// core::Fabric facade and every scenario campaign.
//
// DRAM-Locker is a per-channel mechanism (a lock table and in-DRAM SWAP
// behind one controller), and so is every baseline defense, the integrity
// scrubber, the row retirer and the fault injector.  A Channel owns one
// controller with its RowHammer disturbance model (built by the
// constructor, listener first) plus one slot per optional component,
// which its owner fills in attach order:
//
//   defense (one tracker/swap slot, or the DRAM-Locker gate)
//     -> integrity scrubber -> row retirer -> fault injector
//
// The owner picks the seeds: core::Fabric splits its root RNG per channel,
// campaigns derive each channel's streams from declared seeds.
//
// run_round() drives one round of per-channel rosters through one FR-FCFS
// engine per channel over dl::parallel; Fabric::serve, scenario::run_one
// and scenario::run_serve all serve traffic through it.  Channels share no
// mutable state, so results are identical for any DL_THREADS value.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "defense/dram_locker.hpp"
#include "defense/row_swap.hpp"
#include "defense/shadow.hpp"
#include "defense/trackers.hpp"
#include "dram/controller.hpp"
#include "faults/faults.hpp"
#include "integrity/scrubber.hpp"
#include "resilience/resilience.hpp"
#include "rowhammer/disturbance.hpp"
#include "traffic/engine.hpp"

namespace dl::core {

struct Channel {
  /// Builds the controller (with the opt-in timing engine) and registers
  /// its disturbance model, which draws victim bits from `rng`.
  /// `geometry` is per channel (geometry.channels = 1).
  Channel(const dl::dram::Geometry& geometry, const dl::dram::Timing& timing,
          const dl::dram::TimingSpec& timing_spec,
          const dl::rowhammer::DisturbanceConfig& disturbance_config,
          dl::Rng rng,
          dl::dram::MapScheme scheme = dl::dram::MapScheme::kRowBankColumn);

  // Pinned: every component holds a reference to `ctrl`.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  dl::dram::Controller ctrl;
  dl::rowhammer::DisturbanceModel disturbance;

  // Defense slots: campaigns fill at most one; the fabric may run
  // DRAM-Locker and SHADOW together.
  std::unique_ptr<dl::defense::TrrSampler> trr;
  std::unique_ptr<dl::defense::CounterPerRow> counter_per_row;
  std::unique_ptr<dl::defense::Graphene> graphene;
  std::unique_ptr<dl::defense::CounterTree> counter_tree;
  std::unique_ptr<dl::defense::Hydra> hydra;
  std::unique_ptr<dl::defense::RowSwap> row_swap;
  std::unique_ptr<dl::defense::Shadow> shadow;
  std::unique_ptr<dl::defense::DramLocker> locker;

  std::unique_ptr<dl::integrity::DramScrubber> scrubber;
  std::unique_ptr<dl::resilience::RowRetirer> retirer;
  std::unique_ptr<dl::faults::FaultInjector> injector;

  /// Self-healing ladder rung; chaos drills take a channel offline here.
  dl::resilience::ChannelHealth health =
      dl::resilience::ChannelHealth::kHealthy;
};

using Channels = std::vector<std::unique_ptr<Channel>>;
/// Per-channel tenant rosters of one round, indexed by channel.
using Rosters = std::vector<std::vector<dl::traffic::StreamSpec>>;

/// Merges tenant tables element-wise (every channel and round runs the
/// same sharded roster, so index i is the same tenant everywhere).
void merge_tenants(std::vector<dl::traffic::TenantStats>& into,
                   const std::vector<dl::traffic::TenantStats>& from);

/// Merges per-channel reports in channel order: tenants element-wise,
/// serviced summed, elapsed as the makespan (channels run concurrently, so
/// the slowest channel's clock, not the sum).
dl::traffic::TrafficReport merge_channels(
    const std::vector<dl::traffic::TrafficReport>& channels);

/// Runs one round's rosters, one engine per channel over the pool.  Each
/// worker merges its channel's report into `totals[c]` itself; a merge on
/// the serial path after the fan-out measured slower.  A channel's
/// scrubber verifies the serviced chunks of tenant `scrub_tenant` and
/// counts a pass when that tenant was offered a sweep (channels without a
/// scrubber ignore the index).  Returns the round's own reports.
std::vector<dl::traffic::TrafficReport> run_round(
    const Channels& channels, Rosters& rosters,
    const dl::traffic::SchedulerConfig& scheduler,
    const dl::traffic::AdmissionSpec& admission, std::size_t scrub_tenant,
    std::vector<dl::traffic::TrafficReport>& totals);

}  // namespace dl::core
