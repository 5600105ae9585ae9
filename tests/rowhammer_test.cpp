// Tests for the disturbance model and attacker patterns.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dram/controller.hpp"
#include "rowhammer/attacker.hpp"
#include "rowhammer/disturbance.hpp"

namespace {

using namespace dl::dram;
using namespace dl::rowhammer;

class RowhammerTest : public ::testing::Test {
 protected:
  Geometry g = Geometry::tiny();
  Controller ctrl{g, ddr4_2400()};

  DisturbanceModel make_model(std::uint64_t t_rh, double d2 = 0.0,
                              bool deterministic = true) {
    DisturbanceConfig cfg;
    cfg.t_rh = t_rh;
    cfg.distance2_weight = d2;
    cfg.deterministic_bits = deterministic;
    return DisturbanceModel(ctrl, cfg, dl::Rng(1));
  }
};

TEST_F(RowhammerTest, NoFlipBelowThreshold) {
  auto model = make_model(100);
  ctrl.add_listener(&model);
  for (int i = 0; i < 99; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  EXPECT_TRUE(model.flips().empty());
  EXPECT_DOUBLE_EQ(model.disturbance(9), 99.0);
  EXPECT_DOUBLE_EQ(model.disturbance(11), 99.0);
}

TEST_F(RowhammerTest, FlipExactlyAtThreshold) {
  auto model = make_model(100);
  ctrl.add_listener(&model);
  for (int i = 0; i < 100; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  // Both distance-1 victims (rows 9 and 11) crossed the threshold.
  ASSERT_EQ(model.flips().size(), 2u);
  EXPECT_EQ(model.total_flips(), 2u);
  std::set<GlobalRowId> victims;
  for (const auto& f : model.flips()) victims.insert(f.victim_row);
  EXPECT_TRUE(victims.contains(9));
  EXPECT_TRUE(victims.contains(11));
  // Accumulation restarted after the flip.
  EXPECT_DOUBLE_EQ(model.disturbance(9), 0.0);
}

TEST_F(RowhammerTest, DeterministicFlipHitsByteZeroBitZero) {
  auto model = make_model(10);
  ctrl.add_listener(&model);
  for (int i = 0; i < 10; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  ASSERT_FALSE(model.flips().empty());
  EXPECT_EQ(model.flips()[0].byte, 0u);
  EXPECT_EQ(model.flips()[0].bit, 0u);
  EXPECT_EQ(ctrl.data().read_byte(9, 0), 1);
}

TEST_F(RowhammerTest, SubarrayBoundaryHasNoVictimBeyond) {
  auto model = make_model(10);
  ctrl.add_listener(&model);
  // Row 0 has only one distance-1 neighbour (row 1).
  for (int i = 0; i < 10; ++i) ctrl.hammer(ctrl.mapper().row_base(0));
  ASSERT_EQ(model.flips().size(), 1u);
  EXPECT_EQ(model.flips()[0].victim_row, 1u);
}

TEST_F(RowhammerTest, RefreshWindowResetsAccumulation) {
  auto model = make_model(100);
  ctrl.add_listener(&model);
  for (int i = 0; i < 60; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  ctrl.advance_time(ctrl.timing().tREFW);  // auto-refresh boundary
  for (int i = 0; i < 60; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  // 60 + 60 split across windows never reaches 100.
  EXPECT_TRUE(model.flips().empty());
}

TEST_F(RowhammerTest, TargetedRefreshResetsVictim) {
  auto model = make_model(100);
  ctrl.add_listener(&model);
  for (int i = 0; i < 90; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  ctrl.refresh_row(9);
  EXPECT_DOUBLE_EQ(model.disturbance(9), 0.0);
  EXPECT_DOUBLE_EQ(model.disturbance(11), 90.0);
}

TEST_F(RowhammerTest, HalfDoubleCouplingAccumulates) {
  auto model = make_model(100, /*d2=*/0.5);
  ctrl.add_listener(&model);
  for (int i = 0; i < 10; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  EXPECT_DOUBLE_EQ(model.disturbance(8), 5.0);
  EXPECT_DOUBLE_EQ(model.disturbance(12), 5.0);
}

TEST_F(RowhammerTest, FlipCallbackFires) {
  auto model = make_model(10);
  ctrl.add_listener(&model);
  int events = 0;
  model.set_flip_callback([&](const FlipEvent&) { ++events; });
  for (int i = 0; i < 10; ++i) ctrl.hammer(ctrl.mapper().row_base(10));
  EXPECT_EQ(events, 2);
}

class PatternAggressors : public ::testing::TestWithParam<HammerPattern> {};

TEST_P(PatternAggressors, AggressorsAreWithinBlastRadius) {
  const Geometry g = Geometry::tiny();
  Controller ctrl(g, ddr4_2400());
  DisturbanceConfig cfg;
  DisturbanceModel model(ctrl, cfg, dl::Rng(1));
  HammerAttacker attacker(ctrl, model);
  const GlobalRowId victim = 20;
  const auto aggressors = attacker.aggressors_for(victim, GetParam());
  EXPECT_FALSE(aggressors.empty());
  for (const auto a : aggressors) {
    const auto av = from_global(g, a);
    const auto vv = from_global(g, victim);
    EXPECT_TRUE(same_subarray(av, vv));
    EXPECT_LE(row_distance(av, vv), 2u);
    EXPECT_NE(a, victim);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternAggressors,
                         ::testing::Values(HammerPattern::kSingleSided,
                                           HammerPattern::kDoubleSided,
                                           HammerPattern::kManySided,
                                           HammerPattern::kHalfDouble));

TEST_F(RowhammerTest, DoubleSidedAttackFlipsVictim) {
  auto model = make_model(1000);
  ctrl.add_listener(&model);
  HammerAttacker attacker(ctrl, model);
  const auto res = attacker.attack(20, HammerPattern::kDoubleSided,
                                   /*act_budget=*/4000,
                                   /*stop_after_flips=*/1);
  EXPECT_GT(res.flips_in_victim, 0u);
  EXPECT_GT(res.granted_acts, 0u);
  EXPECT_EQ(res.denied_acts, 0u);
  EXPECT_GT(res.elapsed, 0);
}

TEST_F(RowhammerTest, HalfDoubleFlipsThroughDistanceTwo) {
  // Half-Double (Kogler et al.): hammering at distance 2 still flips the
  // victim once the coupling weight is non-zero, defeating distance-1-only
  // defenses.  With weight 0.5 the victim needs 2x the activations.
  auto model = make_model(100, /*d2=*/0.5);
  ctrl.add_listener(&model);
  HammerAttacker attacker(ctrl, model);
  const auto res =
      attacker.attack(20, HammerPattern::kHalfDouble, /*act_budget=*/400,
                      /*stop_after_flips=*/1);
  EXPECT_GT(res.flips_in_victim, 0u);
  EXPECT_GE(res.granted_acts, 180u);  // ~200 activations at weight 0.5
}

TEST_F(RowhammerTest, BudgetExhaustionReportsNoFlip) {
  auto model = make_model(100000);
  ctrl.add_listener(&model);
  HammerAttacker attacker(ctrl, model);
  const auto res =
      attacker.attack(20, HammerPattern::kDoubleSided, 500, 1);
  EXPECT_EQ(res.flips_in_victim, 0u);
  EXPECT_EQ(res.granted_acts, 500u);
}

TEST_F(RowhammerTest, AttackRestoresOuterFlipCallback) {
  // The attacker's per-campaign flip counting must not clobber a callback
  // an outer driver installed on the shared disturbance model.
  auto model = make_model(10);
  ctrl.add_listener(&model);
  int outer_events = 0;
  model.set_flip_callback([&](const FlipEvent&) { ++outer_events; });

  HammerAttacker attacker(ctrl, model);
  (void)attacker.attack(20, HammerPattern::kDoubleSided, /*act_budget=*/50);

  // Flips during the attack were routed to the attacker's counter...
  EXPECT_EQ(outer_events, 0);
  // ...and the outer callback is live again afterwards.
  for (int i = 0; i < 10; ++i) ctrl.hammer(ctrl.mapper().row_base(40));
  EXPECT_GT(outer_events, 0);
}

namespace {

/// Gate that throws after a fixed number of accesses (mid-attack).
class ThrowingGate final : public AccessGate {
 public:
  explicit ThrowingGate(int allow) : allow_(allow) {}
  GateDecision before_access(const AccessRequest&, Controller&) override {
    if (--allow_ < 0) throw std::runtime_error("gate fault");
    return GateDecision::kAllow;
  }

 private:
  int allow_;
};

}  // namespace

TEST_F(RowhammerTest, FlipCallbackClearedWhenAttackThrows) {
  // A throw inside the hammer loop must not leave the attack's callback
  // (whose captures die with the frame) installed on the shared model.
  auto model = make_model(10);
  ctrl.add_listener(&model);
  ThrowingGate gate(25);
  ctrl.set_gate(&gate);
  HammerAttacker attacker(ctrl, model);
  EXPECT_THROW(
      attacker.attack(20, HammerPattern::kDoubleSided, /*act_budget=*/100),
      std::runtime_error);
  ctrl.set_gate(nullptr);
  // exchange returns the installed callback: it must be empty again.
  const auto leftover = model.exchange_flip_callback(nullptr);
  EXPECT_FALSE(static_cast<bool>(leftover));
}

// ------------------------------------------- dense vs map accumulators

/// The hash-map accumulator the dense per-subarray pages replaced, kept as
/// the reference: one map entry per disturbed row, a RowAddress round trip
/// per neighbour, and a refresh window that clears the whole map.
class MapDisturbance final : public ActivationListener {
 public:
  MapDisturbance(Controller& ctrl, DisturbanceConfig config, dl::Rng rng)
      : ctrl_(ctrl), config_(config), rng_(rng) {}

  void on_activate(GlobalRowId physical_row, dl::Picoseconds now) override {
    const Geometry& g = ctrl_.geometry();
    const RowAddress a = from_global(g, physical_row);
    const std::pair<std::int64_t, double> neighbours[] = {
        {-1, 1.0}, {+1, 1.0},
        {-2, config_.distance2_weight}, {+2, config_.distance2_weight}};
    for (const auto& [offset, weight] : neighbours) {
      if (weight <= 0.0) continue;
      const std::int64_t r = static_cast<std::int64_t>(a.row) + offset;
      if (r < 0 || r >= static_cast<std::int64_t>(g.rows_per_subarray)) {
        continue;
      }
      RowAddress victim = a;
      victim.row = static_cast<std::uint32_t>(r);
      const GlobalRowId id = to_global(g, victim);
      double& acc = accum_[id];
      acc += weight;
      if (acc >= static_cast<double>(config_.t_rh)) {
        inject_flips(id, now);
        acc = 0.0;
      }
    }
  }
  void on_refresh_window(dl::Picoseconds) override { accum_.clear(); }
  void on_row_refresh(GlobalRowId row) override { accum_.erase(row); }

  [[nodiscard]] double disturbance(GlobalRowId row) const {
    const auto it = accum_.find(row);
    return it == accum_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::vector<FlipEvent>& flips() const { return flips_; }

 private:
  void inject_flips(GlobalRowId victim, dl::Picoseconds now) {
    for (unsigned i = 0; i < config_.max_flips_per_event; ++i) {
      FlipEvent ev{.victim_row = victim, .at = now};
      if (!config_.deterministic_bits) {
        ev.byte = static_cast<std::uint32_t>(
            rng_.next_below(ctrl_.geometry().row_bytes));
        ev.bit = static_cast<unsigned>(rng_.next_below(8));
      }
      ctrl_.data().flip_bit(victim, ev.byte, ev.bit);
      flips_.push_back(ev);
    }
  }

  Controller& ctrl_;
  DisturbanceConfig config_;
  dl::Rng rng_;
  std::unordered_map<GlobalRowId, double> accum_;
  std::vector<FlipEvent> flips_;
};

testing::AssertionResult SameDisturbance(const Geometry& g,
                                         const DisturbanceModel& dense,
                                         const MapDisturbance& map) {
  // One row past the end too: out-of-range rows read as 0 in both.
  for (GlobalRowId row = 0; row <= g.total_rows(); ++row) {
    if (dense.disturbance(row) != map.disturbance(row)) {
      return testing::AssertionFailure()
             << "row " << row << ": dense " << dense.disturbance(row)
             << ", map " << map.disturbance(row);
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult SameFlips(const std::vector<FlipEvent>& dense,
                                   const std::vector<FlipEvent>& map) {
  if (dense.size() != map.size()) {
    return testing::AssertionFailure()
           << dense.size() << " dense flips, " << map.size() << " map flips";
  }
  for (std::size_t i = 0; i < dense.size(); ++i) {
    const FlipEvent& a = dense[i];
    const FlipEvent& b = map[i];
    if (a.victim_row != b.victim_row || a.byte != b.byte || a.bit != b.bit ||
        a.at != b.at) {
      return testing::AssertionFailure()
             << "flip " << i << ": dense row " << a.victim_row << " byte "
             << a.byte << " bit " << a.bit << " at " << a.at << ", map row "
             << b.victim_row << " byte " << b.byte << " bit " << b.bit
             << " at " << b.at;
    }
  }
  return testing::AssertionSuccess();
}

// Each model sits on its own controller and both take one seeded stream:
// ACTs mostly on three hot subarrays (the first, a middle and the last) and
// half of them on the edge rows 0, 1, rps-2 and rps-1, targeted
// refresh_row()s, and forced refresh-window boundaries.
TEST(DisturbanceOracle, DenseMatchesMapAccumulator) {
  const Geometry odd{.channels = 1, .ranks = 2, .banks = 3,
                     .subarrays_per_bank = 5, .rows_per_subarray = 37,
                     .row_bytes = 64};
  for (const Geometry& g : {Geometry::tiny(), odd}) {
    for (const double d2 : {0.0, 0.25, 1.0}) {
      SCOPED_TRACE(testing::Message() << "rows_per_subarray "
                                      << g.rows_per_subarray << ", d2 " << d2);
      DisturbanceConfig cfg;
      cfg.t_rh = 32;
      cfg.distance2_weight = d2;
      cfg.max_flips_per_event = 2;
      cfg.deterministic_bits = false;
      Controller dense_ctrl(g, ddr4_2400());
      Controller map_ctrl(g, ddr4_2400());
      DisturbanceModel dense(dense_ctrl, cfg, dl::Rng(11));
      MapDisturbance map(map_ctrl, cfg, dl::Rng(11));
      dense_ctrl.add_listener(&dense);
      map_ctrl.add_listener(&map);

      const std::uint32_t rps = g.rows_per_subarray;
      const std::uint64_t subarrays = g.total_rows() / rps;
      const std::uint64_t hot[] = {0, subarrays / 2, subarrays - 1};
      const std::uint32_t edges[] = {0, 1, rps - 2, rps - 1};
      dl::Rng stream(29);
      const auto pick_row = [&] {
        const std::uint64_t s = stream.next_below(4) == 0
                                    ? stream.next_below(subarrays)
                                    : hot[stream.next_below(3)];
        const std::uint32_t r = stream.next_below(2) == 0
                                    ? edges[stream.next_below(4)]
                                    : static_cast<std::uint32_t>(
                                          stream.next_below(rps));
        return s * rps + r;
      };
      int windows = 0;
      for (int op = 0; op < 30000; ++op) {
        const std::uint64_t kind = stream.next_below(1000);
        if (kind < 1) {
          ASSERT_TRUE(SameDisturbance(g, dense, map)) << "window " << windows;
          dense_ctrl.advance_time(dense_ctrl.timing().tREFW);
          map_ctrl.advance_time(map_ctrl.timing().tREFW);
          ++windows;
        } else if (kind < 40) {
          const GlobalRowId row = pick_row();
          dense_ctrl.refresh_row(row);
          map_ctrl.refresh_row(row);
        } else {
          const GlobalRowId row = pick_row();
          dense_ctrl.hammer(dense_ctrl.mapper().row_base(row));
          map_ctrl.hammer(map_ctrl.mapper().row_base(row));
        }
      }
      ASSERT_TRUE(SameDisturbance(g, dense, map));
      EXPECT_GE(windows, 10);
      ASSERT_GT(map.flips().size(), 100u);  // the stream is not vacuous
      EXPECT_TRUE(SameFlips(dense.flips(), map.flips()));
      EXPECT_EQ(dense.total_flips(), map.flips().size());
      int edge_flips = 0;
      for (const FlipEvent& f : map.flips()) {
        const std::uint64_t r = f.victim_row % rps;
        edge_flips += r == 0 || r == rps - 1;
      }
      EXPECT_GT(edge_flips, 0);
    }
  }
}

TEST(DisturbanceOracle, RejectsSubarraysWithoutRows) {
  Geometry g = Geometry::tiny();
  g.rows_per_subarray = 0;
  Controller ctrl(g, ddr4_2400());
  EXPECT_THROW(DisturbanceModel(ctrl, DisturbanceConfig{}, dl::Rng(1)),
               dl::Error);
}

}  // namespace
