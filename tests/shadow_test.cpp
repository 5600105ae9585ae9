// Tests for the SHADOW baseline.
#include <gtest/gtest.h>

#include <array>

#include "defense/shadow.hpp"
#include "rowhammer/attacker.hpp"
#include "rowhammer/disturbance.hpp"

namespace {

using namespace dl::defense;
using namespace dl::dram;

class ShadowTest : public ::testing::Test {
 protected:
  Geometry g = Geometry::tiny();
  Controller ctrl{g, ddr4_2400()};

  ShadowConfig cfg(std::uint64_t threshold = 100,
                   std::uint64_t entries = 1000) {
    ShadowConfig c;
    c.threshold = threshold;
    c.table_entries = entries;
    return c;
  }
};

TEST_F(ShadowTest, NoShuffleBelowHalfThreshold) {
  Shadow shadow(ctrl, cfg(100), dl::Rng(3));
  ctrl.add_listener(&shadow);
  for (int i = 0; i < 49; ++i) ctrl.hammer(ctrl.mapper().row_base(20));
  EXPECT_EQ(shadow.shuffles(), 0u);
}

TEST_F(ShadowTest, ShuffleTriggersAtHalfThreshold) {
  Shadow shadow(ctrl, cfg(100), dl::Rng(3));
  ctrl.add_listener(&shadow);
  for (int i = 0; i < 50; ++i) ctrl.hammer(ctrl.mapper().row_base(20));
  EXPECT_GE(shadow.shuffles(), 1u);
  EXPECT_FALSE(shadow.compromised());
}

TEST_F(ShadowTest, ShuffleRelocatesVictimData) {
  const std::array<std::uint8_t, 1> payload{0x42};
  ctrl.write(ctrl.mapper().row_base(19), payload);
  Shadow shadow(ctrl, cfg(100), dl::Rng(3));
  ctrl.add_listener(&shadow);
  for (int i = 0; i < 50; ++i) ctrl.hammer(ctrl.mapper().row_base(20));
  ASSERT_GE(shadow.shuffles(), 1u);
  // Logical row 19 is addressable at the same address but physically moved.
  std::array<std::uint8_t, 1> buf{};
  ctrl.read(ctrl.mapper().row_base(19), buf);
  EXPECT_EQ(buf[0], 0x42);
  EXPECT_NE(ctrl.indirection().to_physical(19), 19u);
}

TEST_F(ShadowTest, ShufflingProtectsAgainstHammer) {
  dl::rowhammer::DisturbanceConfig dcfg;
  dcfg.t_rh = 100;
  dcfg.deterministic_bits = true;
  dl::rowhammer::DisturbanceModel model(ctrl, dcfg, dl::Rng(1));
  ctrl.add_listener(&model);
  Shadow shadow(ctrl, cfg(100), dl::Rng(3));
  ctrl.add_listener(&shadow);
  dl::rowhammer::HammerAttacker attacker(ctrl, model);
  const auto res = attacker.attack(
      20, dl::rowhammer::HammerPattern::kDoubleSided, /*act_budget=*/2000);
  // The shuffle keeps moving the victims: far fewer flips land on the
  // victim than the ~20 an undefended run would produce.
  EXPECT_LT(res.flips_in_victim, 3u);
}

TEST_F(ShadowTest, CompromiseAfterTableExhaustion) {
  Shadow shadow(ctrl, cfg(100, /*entries=*/3), dl::Rng(3));
  ctrl.add_listener(&shadow);
  for (int i = 0; i < 400; ++i) ctrl.hammer(ctrl.mapper().row_base(20));
  EXPECT_TRUE(shadow.compromised());
  EXPECT_LE(shadow.entries_used(), 3u);
  const auto shuffles_at_compromise = shadow.shuffles();
  // No further mitigation once compromised.
  for (int i = 0; i < 200; ++i) ctrl.hammer(ctrl.mapper().row_base(30));
  EXPECT_EQ(shadow.shuffles(), shuffles_at_compromise);
}

TEST_F(ShadowTest, ShuffleLatencyIsAccounted) {
  Shadow shadow(ctrl, cfg(100), dl::Rng(3));
  ctrl.add_listener(&shadow);
  for (int i = 0; i < 50; ++i) ctrl.hammer(ctrl.mapper().row_base(20));
  EXPECT_GT(ctrl.defense_time(), 0);
  EXPECT_GE(ctrl.counters().value(Counter::kRowClones), 3.0);
}

TEST_F(ShadowTest, WindowResetClearsCounts) {
  Shadow shadow(ctrl, cfg(100), dl::Rng(3));
  ctrl.add_listener(&shadow);
  for (int i = 0; i < 30; ++i) ctrl.hammer(ctrl.mapper().row_base(20));
  ctrl.advance_time(ctrl.timing().tREFW);
  for (int i = 0; i < 30; ++i) ctrl.hammer(ctrl.mapper().row_base(20));
  EXPECT_EQ(shadow.shuffles(), 0u);  // never reached 50 within one window
}

}  // namespace
