// Tests for DRAM geometry, addressing and timing presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "dram/timing.hpp"
#include "dram/types.hpp"

namespace {

using namespace dl::dram;

TEST(Geometry, Ddr432GbCapacity) {
  const Geometry g = Geometry::ddr4_32gb_16bank();
  EXPECT_EQ(g.total_bytes(), 32ull << 30);
  EXPECT_EQ(g.banks, 16u);
  EXPECT_EQ(g.row_bytes, 8192u);
}

TEST(Geometry, TinyCounts) {
  const Geometry g = Geometry::tiny();
  EXPECT_EQ(g.total_banks(), 2u);
  EXPECT_EQ(g.rows_per_bank(), 4u * 64u);
  EXPECT_EQ(g.total_rows(), 2u * 4u * 64u);
}

class GlobalRowRoundTrip : public ::testing::TestWithParam<Geometry> {};

TEST_P(GlobalRowRoundTrip, BijectionOverSampledRows) {
  const Geometry g = GetParam();
  const std::uint64_t total = g.total_rows();
  const std::uint64_t step = std::max<std::uint64_t>(1, total / 997);
  for (GlobalRowId id = 0; id < total; id += step) {
    const RowAddress a = from_global(g, id);
    EXPECT_EQ(to_global(g, a), id);
  }
  // Edge rows.
  EXPECT_EQ(to_global(g, from_global(g, total - 1)), total - 1);
}

TEST_P(GlobalRowRoundTrip, SplitRowNeighboursMatchRowAddressNeighbours) {
  const Geometry g = GetParam();
  const std::uint64_t total = g.total_rows();
  const std::uint64_t step = std::max<std::uint64_t>(1, total / 997);
  std::vector<GlobalRowId> ids = {0, g.rows_per_subarray - 1,
                                  g.rows_per_subarray, total - 1};
  for (GlobalRowId id = 0; id < total; id += step) ids.push_back(id);
  for (const GlobalRowId id : ids) {
    const RowAddress a = from_global(g, id);
    const SubarrayRow s = split_row(g, id);
    ASSERT_EQ(s.row, a.row);
    ASSERT_EQ(s.base() + s.row, id);
    std::vector<GlobalRowId> within3;  // what neighbours(3) must list
    for (std::int64_t d = -3; d <= 3; ++d) {
      const std::int64_t r = static_cast<std::int64_t>(a.row) + d;
      const std::optional<GlobalRowId> nb = s.offset(d);
      if (r < 0 || r >= static_cast<std::int64_t>(g.rows_per_subarray)) {
        EXPECT_FALSE(nb.has_value()) << id << " " << d;
        continue;
      }
      RowAddress b = a;
      b.row = static_cast<std::uint32_t>(r);
      ASSERT_TRUE(nb.has_value()) << id << " " << d;
      EXPECT_EQ(*nb, to_global(g, b)) << id << " " << d;
      if (d != 0) within3.push_back(*nb);
    }
    EXPECT_EQ(s.neighbours(3), within3) << id;
    EXPECT_TRUE(s.neighbours(0).empty()) << id;
  }
  EXPECT_THROW(static_cast<void>(split_row(g, total)), dl::Error);
}

INSTANTIATE_TEST_SUITE_P(Geometries, GlobalRowRoundTrip,
                         ::testing::Values(Geometry::tiny(),
                                           Geometry::ddr4_32gb_16bank(),
                                           Geometry{.channels = 2,
                                                    .ranks = 2,
                                                    .banks = 8,
                                                    .subarrays_per_bank = 16,
                                                    .rows_per_subarray = 128,
                                                    .row_bytes = 4096}));

TEST(RowAddress, OutOfBoundsRejected) {
  const Geometry g = Geometry::tiny();
  RowAddress a;
  a.bank = g.banks;  // out of range
  EXPECT_THROW(static_cast<void>(to_global(g, a)), dl::Error);
  EXPECT_THROW(static_cast<void>(from_global(g, g.total_rows())), dl::Error);
}

TEST(RowAddress, SameSubarrayAndDistance) {
  RowAddress a{.channel = 0, .rank = 0, .bank = 1, .subarray = 2, .row = 10};
  RowAddress b = a;
  b.row = 13;
  EXPECT_TRUE(same_subarray(a, b));
  EXPECT_EQ(row_distance(a, b), 3u);
  b.subarray = 3;
  EXPECT_FALSE(same_subarray(a, b));
  EXPECT_THROW(static_cast<void>(row_distance(a, b)), dl::Error);
}

TEST(Timing, Ddr4Presets) {
  const Timing t = ddr4_2400();
  EXPECT_EQ(t.row_cycle(), t.tRAS + t.tRP);
  EXPECT_GT(t.miss_latency(), t.hit_latency());
  EXPECT_EQ(t.tREFW, 64000000000LL);
}

TEST(Timing, RowCloneUnder100ns) {
  // RowClone's headline property: an in-subarray copy in <100 ns.
  for (const auto& t :
       {ddr4_2400(), ddr3_1600(), lpddr4_3200()}) {
    EXPECT_LT(t.tAAP + t.tRP, 100000) << "tAAP+tRP must stay under 100 ns";
  }
}

TEST(Timing, GenerationSurveyMatchesFig1b) {
  const auto survey = generation_survey();
  ASSERT_EQ(survey.size(), 6u);
  EXPECT_EQ(survey[0].name, "DDR3 (old)");
  EXPECT_EQ(survey[0].t_rh, 139000u);
  EXPECT_EQ(survey[1].t_rh, 22400u);
  EXPECT_EQ(survey[2].t_rh, 17500u);
  EXPECT_EQ(survey[3].t_rh, 10000u);
  EXPECT_EQ(survey[4].t_rh, 16800u);
  EXPECT_EQ(survey[5].t_rh_low, 4800u);
  EXPECT_EQ(survey[5].t_rh_high, 9000u);
  // The downward trajectory the paper highlights: each generation's "new"
  // parts flip with fewer activations than its "old" parts.
  EXPECT_LT(survey[1].t_rh, survey[0].t_rh);
  EXPECT_LT(survey[3].t_rh, survey[2].t_rh);
  EXPECT_LT(survey[5].t_rh, survey[4].t_rh);
}

}  // namespace
