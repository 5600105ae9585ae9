// Counter parity: the enum-indexed CounterBlock is the controller's one
// counter store.  These tests pin what it counts across the three campaign
// shapes the repo runs — a hammer campaign (attacker + DRAM-Locker gate +
// SWAP sequencer), a multi-tenant traffic campaign, and an integrity
// campaign (DRAM scrubber) — against the defenses' and tenants' own
// ledgers, plus the CounterBlock unit semantics.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "defense/dram_locker.hpp"
#include "defense/row_swap.hpp"
#include "dram/controller.hpp"
#include "dram/counters.hpp"
#include "integrity/scrubber.hpp"
#include "traffic/engine.hpp"

namespace {

using namespace dl;
using dram::Controller;
using dram::Counter;
using dram::CounterBlock;

TEST(CounterBlock, AddAccumulatesAndResetClears) {
  CounterBlock c;
  c.add(Counter::kActivates);
  c.add(Counter::kHammerActs, 3.0);
  c.add(Counter::kActivates, 2.0);
  EXPECT_EQ(c.value(Counter::kActivates), 3.0);
  EXPECT_EQ(c.value(Counter::kHammerActs), 3.0);
  EXPECT_EQ(c.value(Counter::kReads), 0.0);
  c.reset();
  EXPECT_EQ(c.value(Counter::kActivates), 0.0);
  EXPECT_EQ(c.value(Counter::kHammerActs), 0.0);
}

TEST(CounterParity, HammerCampaign) {
  // Attacker hammers next to a protected row through the DRAM-Locker gate;
  // the privileged program triggers an unlock SWAP (sequencer µprogram).
  Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  defense::DramLockerConfig cfg;
  cfg.reserved_rows_per_subarray = 4;
  defense::DramLocker locker(ctrl, cfg, Rng(5));
  ctrl.set_gate(&locker);
  locker.protect_data_row(20);

  std::array<std::uint8_t, 8> buf{};
  ctrl.read(ctrl.mapper().row_base(40), buf);                // allowed read
  for (int i = 0; i < 16; ++i) {
    ctrl.hammer(ctrl.mapper().row_base(19));                 // locked: denied
    ctrl.hammer(ctrl.mapper().row_base(30));                 // unlocked row
  }
  // Privileged access to a locked row: unlock SWAP through the sequencer.
  ctrl.read(ctrl.mapper().row_base(19), buf, /*can_unlock=*/true);

  const CounterBlock& stats = ctrl.counters();
  EXPECT_EQ(stats.value(Counter::kDeniedAccesses), 16.0);
  EXPECT_EQ(stats.value(Counter::kHammerActs), 16.0);
  EXPECT_EQ(stats.value(Counter::kRowClones), 3.0);  // one 3-copy SWAP
  EXPECT_EQ(stats.value(Counter::kSequencerPrograms), 1.0);
  EXPECT_EQ(
      static_cast<std::uint64_t>(stats.value(Counter::kSequencerPrograms)),
      locker.stats().unlock_swaps);
}

TEST(CounterParity, TrafficCampaign) {
  Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  std::vector<traffic::StreamSpec> tenants = {
      traffic::StreamSpec::weight_reader(8, 4, 128),
      traffic::StreamSpec::synthetic(72, 16, 96, /*locality=*/0.3,
                                     /*write_fraction=*/0.4, /*seed=*/7),
      traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                  /*victim_row=*/130, 64),
  };
  traffic::TrafficEngine engine(ctrl, std::move(tenants), {});
  const auto report = engine.run();

  // The per-tenant ledger and the controller counter block must agree.
  std::uint64_t reads = 0, writes = 0, hammers = 0;
  for (const auto& t : report.tenants) {
    reads += t.reads;
    writes += t.writes;
    hammers += t.hammer_acts;
  }
  const CounterBlock& stats = ctrl.counters();
  EXPECT_EQ(stats.value(Counter::kReads), static_cast<double>(reads));
  EXPECT_EQ(stats.value(Counter::kWrites), static_cast<double>(writes));
  EXPECT_EQ(stats.value(Counter::kHammerActs), static_cast<double>(hammers));
}

TEST(CounterParity, IntegrityCampaign) {
  Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  // Materialize two rows, register them, corrupt one bit, scrub.
  std::vector<std::uint8_t> row(ctrl.geometry().row_bytes, 0x3C);
  ctrl.write(ctrl.mapper().row_base(8), row);
  ctrl.write(ctrl.mapper().row_base(9), row);
  integrity::Config cfg;
  cfg.group_size = 64;
  integrity::DramScrubber scrubber(ctrl, {8, 9}, cfg);
  ctrl.data().flip_bit(8, 10, 3);
  scrubber.scrub_pass();

  const CounterBlock& stats = ctrl.counters();
  EXPECT_EQ(stats.value(Counter::kScrubChunkVerifies),
            static_cast<double>(scrubber.stats().verified_groups));
  EXPECT_GT(stats.value(Counter::kScrubChunkVerifies), 0.0);
  // The corrective write is accounted like any other controller write.
  EXPECT_EQ(stats.value(Counter::kWrites),
            2.0 + static_cast<double>(scrubber.stats().correction_writes));
}

TEST(CounterParity, ChannelSwapAdoption) {
  Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  defense::RowSwapConfig cfg;
  cfg.threshold = 8;
  defense::RowSwap rrs(ctrl, cfg, Rng(3));
  ctrl.add_listener(&rrs);
  for (int i = 0; i < 64; ++i) ctrl.hammer(ctrl.mapper().row_base(40));
  EXPECT_EQ(ctrl.counters().value(Counter::kChannelSwaps),
            static_cast<double>(rrs.swaps()));
  EXPECT_GT(ctrl.counters().value(Counter::kChannelSwaps), 0.0);
}

}  // namespace
