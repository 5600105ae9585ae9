// Tests for the µOp sequencer and the 3-copy SWAP.
#include <gtest/gtest.h>

#include <array>

#include "defense/sequencer.hpp"

namespace {

using namespace dl::defense;
using namespace dl::dram;

class SequencerTest : public ::testing::Test {
 protected:
  Geometry g = Geometry::tiny();
  Controller ctrl{g, ddr4_2400()};
  Sequencer seq{ctrl, dl::Rng(7), 0.0};

  void write_row_byte(GlobalRowId row, std::uint8_t v) {
    ctrl.data().write_byte(row, 0, v);
  }
  std::uint8_t row_byte(GlobalRowId row) {
    return ctrl.data().read_byte(row, 0);
  }
};

TEST_F(SequencerTest, SwapExchangesRowContents) {
  write_row_byte(10, 0xAA);  // "locked" row
  write_row_byte(20, 0xBB);  // "unlocked" free row
  seq.load_reg(kRegLocked, 10);
  seq.load_reg(kRegUnlocked, 20);
  seq.load_reg(kRegBuffer, 63);  // buffer row in the same subarray
  const auto res = seq.run(swap_program());
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.copies, 3u);
  EXPECT_EQ(res.copy_errors, 0u);
  EXPECT_EQ(row_byte(10), 0xBB);
  EXPECT_EQ(row_byte(20), 0xAA);
}

class SwapDataPattern : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(SwapDataPattern, SwapPreservesEveryPattern) {
  const std::uint8_t pattern = GetParam();
  const Geometry g = Geometry::tiny();
  Controller ctrl(g, ddr4_2400());
  Sequencer seq(ctrl, dl::Rng(7), 0.0);
  // Fill both rows fully with complementary patterns.
  std::vector<std::uint8_t> a(g.row_bytes, pattern);
  std::vector<std::uint8_t> b(g.row_bytes,
                              static_cast<std::uint8_t>(~pattern));
  ctrl.data().write(10, 0, a);
  ctrl.data().write(20, 0, b);
  seq.load_reg(kRegLocked, 10);
  seq.load_reg(kRegUnlocked, 20);
  seq.load_reg(kRegBuffer, 63);
  ASSERT_TRUE(seq.run(swap_program()).completed);
  std::vector<std::uint8_t> out(g.row_bytes);
  ctrl.data().read(10, 0, out);
  EXPECT_EQ(out, b);
  ctrl.data().read(20, 0, out);
  EXPECT_EQ(out, a);
}

INSTANTIATE_TEST_SUITE_P(Patterns, SwapDataPattern,
                         ::testing::Values(0x00, 0xFF, 0xAA, 0x55, 0x3C,
                                           0x81));

TEST_F(SequencerTest, SwapConsumesSixActivations) {
  seq.load_reg(kRegLocked, 10);
  seq.load_reg(kRegUnlocked, 20);
  seq.load_reg(kRegBuffer, 63);
  seq.run(swap_program());
  // 3 RowClones x 2 ACTs each.
  EXPECT_EQ(ctrl.counters().value(Counter::kActivates), 6.0);
  EXPECT_EQ(ctrl.counters().value(Counter::kRowClones), 3.0);
}

TEST_F(SequencerTest, BnezLoopRepeats) {
  seq.load_reg(kRegLocked, 10);
  seq.load_reg(kRegUnlocked, 20);
  seq.load_reg(kRegBuffer, 63);
  seq.load_reg(4, 2);  // loop counter: 2 extra rounds
  const auto res = seq.run(repeated_swap_program(4, 3));
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.copies, 9u);  // 3 rounds of 3 copies
}

TEST_F(SequencerTest, TripleSwapIsIdentity) {
  write_row_byte(10, 0x12);
  write_row_byte(20, 0x34);
  seq.load_reg(kRegLocked, 10);
  seq.load_reg(kRegUnlocked, 20);
  seq.load_reg(kRegBuffer, 63);
  seq.load_reg(4, 1);  // two total rounds: swap + swap back
  seq.run(repeated_swap_program(4, 3));
  EXPECT_EQ(row_byte(10), 0x12);
  EXPECT_EQ(row_byte(20), 0x34);
}

TEST_F(SequencerTest, FuelBoundsRunawayPrograms) {
  // A BNEZ with a huge counter must stop at the fuel limit.
  seq.load_reg(kRegLocked, 10);
  seq.load_reg(kRegUnlocked, 20);
  seq.load_reg(kRegBuffer, 63);
  seq.load_reg(4, 1'000'000);
  const auto res = seq.run(repeated_swap_program(4, 3), /*fuel=*/50);
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.uops_executed, 50u);
}

TEST_F(SequencerTest, ErrorInjectionMatchesRate) {
  Sequencer noisy(ctrl, dl::Rng(3), 0.25);
  noisy.load_reg(kRegLocked, 10);
  noisy.load_reg(kRegUnlocked, 20);
  noisy.load_reg(kRegBuffer, 63);
  std::uint64_t errors = 0, copies = 0;
  for (int i = 0; i < 400; ++i) {
    const auto res = noisy.run(swap_program());
    errors += res.copy_errors;
    copies += res.copies;
  }
  EXPECT_NEAR(static_cast<double>(errors) / static_cast<double>(copies),
              0.25, 0.05);
}

TEST_F(SequencerTest, ErrorCorruptsDestinationRow) {
  Sequencer broken(ctrl, dl::Rng(3), 1.0);  // every copy fails
  write_row_byte(10, 0x00);
  write_row_byte(20, 0x00);
  broken.load_reg(kRegLocked, 10);
  broken.load_reg(kRegUnlocked, 20);
  broken.load_reg(kRegBuffer, 63);
  const auto res = broken.run(swap_program());
  EXPECT_EQ(res.copy_errors, 3u);
  EXPECT_EQ(ctrl.counters().value(Counter::kRowCloneCorruptions), 3.0);
}

TEST_F(SequencerTest, EncodedProgramExecutes) {
  write_row_byte(10, 0x77);
  write_row_byte(20, 0x88);
  std::vector<std::uint16_t> words;
  for (const auto& u : swap_program()) words.push_back(u.encode());
  seq.load_reg(kRegLocked, 10);
  seq.load_reg(kRegUnlocked, 20);
  seq.load_reg(kRegBuffer, 63);
  EXPECT_TRUE(seq.run_encoded(words).completed);
  EXPECT_EQ(row_byte(10), 0x88);
}

TEST_F(SequencerTest, InvalidErrorRateRejected) {
  EXPECT_THROW(seq.set_copy_error_rate(1.5), dl::Error);
  EXPECT_THROW(seq.set_copy_error_rate(-0.1), dl::Error);
}

}  // namespace
