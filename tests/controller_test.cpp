// Tests for the trace-driven memory controller.
#include <gtest/gtest.h>

#include <array>

#include "dram/controller.hpp"

namespace {

using namespace dl::dram;
using dl::Picoseconds;

class ControllerTest : public ::testing::Test {
 protected:
  Geometry g = Geometry::tiny();
  Timing t = ddr4_2400();
  Controller ctrl{g, t};
};

TEST_F(ControllerTest, FirstAccessIsRowMiss) {
  std::array<std::uint8_t, 4> buf{};
  const auto r = ctrl.read(0, buf);
  EXPECT_TRUE(r.granted);
  EXPECT_FALSE(r.row_hit);
  EXPECT_EQ(r.latency, t.tRCD + t.tCAS + t.tBURST);
}

TEST_F(ControllerTest, SecondAccessSameRowHits) {
  std::array<std::uint8_t, 4> buf{};
  ctrl.read(0, buf);
  const auto r = ctrl.read(8, buf);
  EXPECT_TRUE(r.row_hit);
  EXPECT_EQ(r.latency, t.tCAS + t.tBURST);
}

TEST_F(ControllerTest, ConflictPaysPrecharge) {
  std::array<std::uint8_t, 4> buf{};
  ctrl.read(0, buf);                      // opens row 0
  const auto r = ctrl.read(g.row_bytes, buf);  // same bank, next row
  EXPECT_FALSE(r.row_hit);
  EXPECT_EQ(r.latency, t.tRP + t.tRCD + t.tCAS + t.tBURST);
}

TEST_F(ControllerTest, WriteReadRoundTripThroughDram) {
  const std::array<std::uint8_t, 3> in{9, 8, 7};
  ctrl.write(100, in);
  std::array<std::uint8_t, 3> out{};
  ctrl.read(100, out);
  EXPECT_EQ(in, out);
}

TEST_F(ControllerTest, BulkTransfersCrossRows) {
  std::vector<std::uint8_t> in(g.row_bytes + 100, 0xAB);
  const auto w = ctrl.write_bulk(g.row_bytes - 50, in);
  EXPECT_TRUE(w.granted);
  std::vector<std::uint8_t> out(in.size());
  const auto r = ctrl.read_bulk(g.row_bytes - 50, out);
  EXPECT_TRUE(r.granted);
  EXPECT_EQ(in, out);
}

TEST_F(ControllerTest, BulkRowHitAggregatesAnyHit) {
  // Fresh controller, both target rows closed: no chunk hits.
  std::vector<std::uint8_t> out(g.row_bytes + 100);
  const auto cold = ctrl.read_bulk(g.row_bytes - 50, out);
  EXPECT_FALSE(cold.row_hit);
  // Re-open the first row of the span; the first chunk now hits while the
  // second still conflicts — any-hit semantics report a bulk row hit.
  std::array<std::uint8_t, 4> small{};
  ctrl.read(g.row_bytes - 50, small);
  const auto warm = ctrl.read_bulk(g.row_bytes - 50, out);
  EXPECT_TRUE(warm.row_hit);
  // Writes aggregate the same way.
  std::vector<std::uint8_t> in(g.row_bytes + 100, 0x5A);
  ctrl.read(g.row_bytes - 50, small);
  const auto w = ctrl.write_bulk(g.row_bytes - 50, in);
  EXPECT_TRUE(w.row_hit);
}

TEST_F(ControllerTest, HammerCountsActivations) {
  for (int i = 0; i < 5; ++i) ctrl.hammer(0);
  EXPECT_EQ(ctrl.counters().value(Counter::kHammerActs), 5.0);
  EXPECT_GE(ctrl.counters().value(Counter::kActivates), 5.0);
}

TEST_F(ControllerTest, ActivationListenerSeesPhysicalRow) {
  struct Probe final : ActivationListener {
    std::vector<GlobalRowId> rows;
    void on_activate(GlobalRowId row, Picoseconds) override {
      rows.push_back(row);
    }
  } probe;
  ctrl.add_listener(&probe);
  std::array<std::uint8_t, 1> buf{};
  ctrl.read(3 * g.row_bytes, buf);
  ASSERT_EQ(probe.rows.size(), 1u);
  EXPECT_EQ(probe.rows[0], 3u);
}

TEST_F(ControllerTest, IndirectionRedirectsAccess) {
  const std::array<std::uint8_t, 1> in{0x55};
  ctrl.write(0, in);  // row 0, byte 0
  // Physically relocate row 0's data to row 7 and update the mapping.
  ctrl.data().copy_row(0, 7);
  ctrl.indirection().swap_logical(0, 7);
  std::array<std::uint8_t, 1> out{};
  ctrl.read(0, out);  // still addressed as row 0
  EXPECT_EQ(out[0], 0x55);
}

TEST_F(ControllerTest, RowCloneCopiesWithinSubarray) {
  const std::array<std::uint8_t, 2> in{0xCA, 0xFE};
  ctrl.write(0, in);
  ctrl.row_clone(0, 5);  // rows 0 and 5 share subarray 0
  std::array<std::uint8_t, 2> out{};
  ctrl.read(5 * g.row_bytes, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(ctrl.counters().value(Counter::kRowClones), 1.0);
}

TEST_F(ControllerTest, RowCloneRejectsCrossSubarray) {
  // Row 0 is subarray 0; row 64 is subarray 1 in the tiny geometry.
  EXPECT_THROW(ctrl.row_clone(0, 64), dl::Error);
}

TEST_F(ControllerTest, RowCloneCorruptionFlipsOneBit) {
  const std::array<std::uint8_t, 1> in{0x00};
  ctrl.write(0, in);
  ctrl.row_clone(0, 5, /*corrupt=*/true, /*corrupt_byte=*/0,
                 /*corrupt_bit=*/2);
  std::array<std::uint8_t, 1> out{};
  ctrl.read(5 * g.row_bytes, out);
  EXPECT_EQ(out[0], 0b100);
  EXPECT_EQ(ctrl.counters().value(Counter::kRowCloneCorruptions), 1.0);
}

TEST_F(ControllerTest, GateCanDenyAccess) {
  struct DenyAll final : AccessGate {
    GateDecision before_access(const AccessRequest&, Controller&) override {
      return GateDecision::kDeny;
    }
  } gate;
  ctrl.set_gate(&gate);
  std::array<std::uint8_t, 1> buf{};
  const auto r = ctrl.read(0, buf);
  EXPECT_FALSE(r.granted);
  EXPECT_EQ(r.latency, 0);
  EXPECT_EQ(ctrl.counters().value(Counter::kDeniedAccesses), 1.0);
  ctrl.set_gate(nullptr);
  EXPECT_TRUE(ctrl.read(0, buf).granted);
}

TEST_F(ControllerTest, GateSeesRequestMetadata) {
  struct Probe final : AccessGate {
    AccessRequest last;
    GateDecision before_access(const AccessRequest& req,
                               Controller&) override {
      last = req;
      return GateDecision::kAllow;
    }
  } gate;
  ctrl.set_gate(&gate);
  std::array<std::uint8_t, 2> buf{};
  ctrl.write(2 * g.row_bytes + 17, buf, /*can_unlock=*/true);
  EXPECT_EQ(gate.last.logical_row, 2u);
  EXPECT_EQ(gate.last.byte, 17u);
  EXPECT_TRUE(gate.last.is_write);
  EXPECT_TRUE(gate.last.can_unlock);
}

TEST_F(ControllerTest, RefreshWindowsFire) {
  struct Probe final : ActivationListener {
    int windows = 0;
    void on_activate(GlobalRowId, Picoseconds) override {}
    void on_refresh_window(Picoseconds) override { ++windows; }
  } probe;
  ctrl.add_listener(&probe);
  ctrl.advance_time(t.tREFW * 3 + 10);
  EXPECT_EQ(probe.windows, 3);
  EXPECT_EQ(ctrl.refresh_windows(), 3u);
}

TEST_F(ControllerTest, DefenseScopeAccountsTime) {
  std::array<std::uint8_t, 1> buf{};
  ctrl.read(0, buf);
  const Picoseconds before = ctrl.defense_time();
  EXPECT_EQ(before, 0);
  {
    DefenseScope scope(ctrl);
    ctrl.row_clone(0, 1);
  }
  EXPECT_GT(ctrl.defense_time(), 0);
  const Picoseconds after = ctrl.defense_time();
  ctrl.read(2 * g.row_bytes, buf);  // outside scope: not counted
  EXPECT_EQ(ctrl.defense_time(), after);
}

TEST_F(ControllerTest, TargetedRefreshNotifiesListeners) {
  struct Probe final : ActivationListener {
    std::vector<GlobalRowId> refreshed;
    void on_activate(GlobalRowId, Picoseconds) override {}
    void on_row_refresh(GlobalRowId row) override {
      refreshed.push_back(row);
    }
  } probe;
  ctrl.add_listener(&probe);
  ctrl.refresh_row(11);
  ASSERT_EQ(probe.refreshed.size(), 1u);
  EXPECT_EQ(probe.refreshed[0], 11u);
  EXPECT_EQ(ctrl.counters().value(Counter::kTargetedRefreshes), 1.0);
}

TEST_F(ControllerTest, TraceRecordsCommands) {
  ctrl.trace().set_capacity(8);
  std::array<std::uint8_t, 1> buf{};
  ctrl.read(0, buf);
  ctrl.row_clone(0, 1);
  const auto& recs = ctrl.trace().records();
  ASSERT_GE(recs.size(), 3u);
  EXPECT_EQ(recs[0].kind, CommandKind::kActivate);
  EXPECT_EQ(recs.back().kind, CommandKind::kRowClone);
}

TEST_F(ControllerTest, TraceCapacityBounds) {
  ctrl.trace().set_capacity(2);
  std::array<std::uint8_t, 1> buf{};
  for (int i = 0; i < 5; ++i) ctrl.hammer(0);
  EXPECT_LE(ctrl.trace().records().size(), 2u);
  EXPECT_GT(ctrl.trace().dropped(), 0u);
  (void)buf;
}

}  // namespace
