// Tests for the core::Fabric facade and cross-cutting properties.
#include <gtest/gtest.h>

#include <array>
#include <tuple>

#include "core/system.hpp"

namespace {

using namespace dl;

core::SystemConfig tiny_system() {
  core::SystemConfig cfg;
  cfg.geometry.banks = 2;
  cfg.geometry.subarrays_per_bank = 4;
  cfg.geometry.rows_per_subarray = 128;
  cfg.geometry.row_bytes = 8192;
  cfg.disturbance.t_rh = 100;
  return cfg;
}

TEST(System, ComponentsAreWired) {
  core::Fabric sys(tiny_system());
  // The disturbance model is registered: hammering accumulates.
  for (int i = 0; i < 10; ++i) sys.hammer(sys.row_base(10));
  EXPECT_DOUBLE_EQ(sys.disturbance().disturbance(9), 10.0);
}

TEST(System, LockerCanOnlyBeEnabledOnce) {
  core::Fabric sys(tiny_system());
  sys.enable_locker();
  EXPECT_THROW(sys.enable_locker(), dl::Error);
}

TEST(System, ShadowCanOnlyBeEnabledOnce) {
  core::Fabric sys(tiny_system());
  sys.enable_shadow();
  EXPECT_THROW(sys.enable_shadow(), dl::Error);
}

TEST(System, ProtectRequiresLocker) {
  core::Fabric sys(tiny_system());
  EXPECT_THROW(sys.protect_physical_range(0, 64), dl::Error);
}

TEST(System, DisableGateRestoresAccess) {
  core::Fabric sys(tiny_system());
  auto& locker = sys.enable_locker();
  locker.protect_data_row(10);
  std::array<std::uint8_t, 1> buf{};
  EXPECT_FALSE(sys.read(sys.row_base(9), buf).granted);
  sys.disable_gate();
  EXPECT_TRUE(sys.read(sys.row_base(9), buf).granted);
}

TEST(System, MakeRngStreamsDiffer) {
  core::Fabric sys(tiny_system());
  Rng a = sys.make_rng();
  Rng b = sys.make_rng();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(System, SameSeedSameBehaviour) {
  // Two systems with the same config produce identical flip sequences.
  auto run = [] {
    core::Fabric sys(tiny_system());
    for (int i = 0; i < 500; ++i) sys.hammer(sys.row_base(10));
    std::vector<std::pair<std::uint32_t, unsigned>> flips;
    for (const auto& f : sys.disturbance().flips()) {
      flips.emplace_back(f.byte, f.bit);
    }
    return flips;
  };
  EXPECT_EQ(run(), run());
}

TEST(System, AddressSpacesShareFrameAllocator) {
  core::Fabric sys(tiny_system());
  auto a = sys.make_address_space();
  auto b = sys.make_address_space();
  a->map_contiguous(0x10000, 1);
  b->map_contiguous(0x10000, 1);
  // Distinct physical frames despite identical virtual layouts.
  EXPECT_NE(a->walk(0x10000)->pfn, b->walk(0x10000)->pfn);
}

TEST(System, ChannelViewExposesTopology) {
  core::Fabric sys(tiny_system());
  const auto view = sys.channel();
  const auto topo = view.topology();
  EXPECT_EQ(topo.bank_count(), view.geometry().total_banks());
  // No row opened yet; after a read the accessed bank holds an open row.
  EXPECT_EQ(topo.open_row(0), dram::Topology::kNoRow);
  std::array<std::uint8_t, 1> buf{};
  sys.read(sys.row_base(0), buf);
  EXPECT_NE(sys.channel().topology().open_row(0), dram::Topology::kNoRow);
}

TEST(System, ValidateRejectsDegenerateConfigs) {
  core::SystemConfig cfg = tiny_system();
  cfg.geometry.channels = 0;
  EXPECT_THROW(core::Fabric{cfg}, dl::Error);
  cfg.geometry.channels = 65;
  EXPECT_THROW(core::Fabric{cfg}, dl::Error);
  cfg = tiny_system();
  cfg.geometry.channels = 4;
  cfg.geometry.rows_per_subarray = 4;  // < 2 * channels
  cfg.interleave = dram::InterleavePolicy::kRowRoundRobin;
  EXPECT_THROW(core::Fabric{cfg}, dl::Error);
  cfg.interleave = dram::InterleavePolicy::kRowBlocked;
  EXPECT_NO_THROW(core::Fabric{cfg});
}

// --- cross-cutting property sweeps ------------------------------------------

class ProtectRadiusSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ProtectRadiusSweep, DeniesEveryAggressorWithinRadius) {
  const std::uint32_t radius = GetParam();
  core::Fabric sys(tiny_system());
  defense::DramLockerConfig lcfg;
  lcfg.protect_radius = radius;
  auto& locker = sys.enable_locker(lcfg);
  const dram::GlobalRowId victim = 50;
  locker.protect_data_row(victim);

  for (std::uint32_t d = 1; d <= radius; ++d) {
    const auto lo = sys.hammer(sys.row_base(victim - d));
    const auto hi = sys.hammer(sys.row_base(victim + d));
    EXPECT_FALSE(lo.granted) << "distance " << d;
    EXPECT_FALSE(hi.granted) << "distance " << d;
  }
  // Just beyond the radius: allowed.
  EXPECT_TRUE(sys.hammer(sys.row_base(victim - radius - 1)).granted);
  EXPECT_TRUE(sys.hammer(sys.row_base(victim + radius + 1)).granted);
  // The data row itself is always accessible.
  std::array<std::uint8_t, 1> buf{};
  EXPECT_TRUE(sys.read(sys.row_base(victim), buf).granted);
}

INSTANTIATE_TEST_SUITE_P(Radii, ProtectRadiusSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

class UnlockCycleSweep : public ::testing::TestWithParam<int> {};

TEST_P(UnlockCycleSweep, SwapBackPreservesDataAcrossManyCycles) {
  // Property: any number of unlock/relock cycles under kSwapBack leaves
  // the protected neighbourhood's data intact and the locks in place.
  const int cycles = GetParam();
  core::Fabric sys(tiny_system());
  defense::DramLockerConfig lcfg;
  lcfg.protect_radius = 1;
  lcfg.relock_rw_interval = 20;
  lcfg.relock_policy = defense::RelockPolicy::kSwapBack;
  auto& locker = sys.enable_locker(lcfg);

  const std::array<std::uint8_t, 4> data{0xAB, 0xCD, 0xEF, 0x01};
  sys.write(sys.row_base(9), data);
  locker.protect_data_row(10);

  std::array<std::uint8_t, 4> buf{};
  for (int c = 0; c < cycles; ++c) {
    const auto r = sys.read(sys.row_base(9), buf, /*can_unlock=*/true);
    ASSERT_TRUE(r.granted);
    ASSERT_EQ(buf, data) << "cycle " << c;
    for (int i = 0; i < 25; ++i) {
      sys.read(sys.row_base(100), buf);
    }
  }
  EXPECT_EQ(locker.stats().unlock_swaps, static_cast<std::uint64_t>(cycles));
  EXPECT_EQ(locker.stats().relocks, static_cast<std::uint64_t>(cycles));
  // Layout restored, lock intact, attacker still denied.
  EXPECT_EQ(sys.channel().indirection().to_physical(9), 9u);
  EXPECT_FALSE(sys.hammer(sys.row_base(9)).granted);
}

INSTANTIATE_TEST_SUITE_P(Cycles, UnlockCycleSweep,
                         ::testing::Values(1, 3, 10, 25));

class MapSchemeSweep
    : public ::testing::TestWithParam<dram::MapScheme> {};

TEST_P(MapSchemeSweep, ProtectionWorksUnderAnyAddressMapping) {
  core::SystemConfig cfg = tiny_system();
  cfg.map_scheme = GetParam();
  core::Fabric sys(cfg);
  const std::array<std::uint8_t, 2> data{0x12, 0x34};
  const dram::PhysAddr addr = 13 * cfg.geometry.row_bytes + 7;
  sys.write(addr, data);
  sys.enable_locker();
  EXPECT_GT(sys.protect_physical_range(addr, data.size()), 0u);
  // The row's physical neighbours are locked regardless of the mapping.
  const dram::GlobalRowId logical = sys.row_of(addr);
  const auto res = sys.hammer_attack(
      logical, rowhammer::HammerPattern::kDoubleSided, 1000);
  EXPECT_EQ(res.granted_acts, 0u);
  EXPECT_EQ(res.flips_in_victim, 0u);
  std::array<std::uint8_t, 2> buf{};
  sys.read(addr, buf, /*can_unlock=*/true);
  EXPECT_EQ(buf, data);
}

INSTANTIATE_TEST_SUITE_P(Schemes, MapSchemeSweep,
                         ::testing::Values(dram::MapScheme::kRowBankColumn,
                                           dram::MapScheme::kBankInterleaved));

}  // namespace
