// Field tables (src/common/fields.hpp): every member of a tabled stats struct
// has a row, and the generic merge applies each row's rule.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/fields.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace dl;

/// Converts to any member type, so `S{Any{}, ...}` is well-formed exactly
/// while the braced list is no longer than S's member list.  Declared only:
/// it appears in unevaluated requires-expressions.
struct Any {
  template <typename T>
  operator T() const;
};

/// The member count of aggregate S: the largest N for which `S{Any x N}` is
/// well-formed.
template <typename S, typename... Anys>
constexpr std::size_t member_count() {
  if constexpr (requires { S{Anys{}..., Any{}}; }) {
    return member_count<S, Anys..., Any>();
  } else {
    return sizeof...(Anys);
  }
}

template <typename S>
std::size_t table_rows() {
  std::size_t rows = 0;
  S::fields([&](const Field&, auto) { ++rows; });
  return rows;
}

template <typename S>
void expect_every_member_tabled(const char* name, std::size_t by_hand = 0) {
  EXPECT_EQ(member_count<S>(), table_rows<S>() + by_hand) << name;
}

TEST(FieldTables, EveryMemberHasARow) {
  expect_every_member_tabled<defense::DramLocker::Stats>("DramLocker::Stats");
  expect_every_member_tabled<defense::TrackerStats>("TrackerStats");
  expect_every_member_tabled<rowhammer::HammerResult>("HammerResult");
  expect_every_member_tabled<integrity::Audit>("Audit");
  expect_every_member_tabled<integrity::Stats>("integrity::Stats");
  expect_every_member_tabled<integrity::ScrubStats>("ScrubStats");
  expect_every_member_tabled<faults::FaultStats>("FaultStats");
  expect_every_member_tabled<resilience::ResilienceStats>("ResilienceStats");
  expect_every_member_tabled<dram::RefreshStats>("RefreshStats");
  // name, kind and queue_latency are journaled and reported by hand.
  expect_every_member_tabled<traffic::TenantStats>("TenantStats", 3);
  expect_every_member_tabled<scenario::ChannelBreakdown>("ChannelBreakdown");
  expect_every_member_tabled<scenario::AvailabilityStats>("AvailabilityStats");
}

/// A struct grown by a member its table lacks.
struct Grown {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t untabled = 0;

  template <typename F>
  static void fields(F&& f) {
    f({"a"}, &Grown::a);
    f({"b"}, &Grown::b);
  }
};

TEST(FieldTables, ProbeCountsAnUntabledMember) {
  EXPECT_EQ(member_count<Grown>(), 3u);
  EXPECT_EQ(table_rows<Grown>(), 2u);
}

TEST(FieldTables, MergeAppliesEachRowsRule) {
  // Sum, and the earliest non-zero detection time.
  integrity::ScrubStats scrub{.passes = 2, .first_detection_at = 0};
  fields::merge(scrub, {.passes = 3, .first_detection_at = 70});
  EXPECT_EQ(scrub.passes, 5u);
  EXPECT_EQ(scrub.first_detection_at, 70);
  fields::merge(scrub, {.first_detection_at = 0});
  EXPECT_EQ(scrub.first_detection_at, 70);
  fields::merge(scrub, {.first_detection_at = 40});
  EXPECT_EQ(scrub.first_detection_at, 40);
  fields::merge(scrub, {.first_detection_at = 90});
  EXPECT_EQ(scrub.first_detection_at, 40);

  // The worst slip; busy time summed.
  dram::RefreshStats refresh{.ref_busy_ps = 10, .max_ref_slip_ps = 5};
  fields::merge(refresh, {.ref_busy_ps = 20, .max_ref_slip_ps = 3});
  EXPECT_EQ(refresh.ref_busy_ps, 30);
  EXPECT_EQ(refresh.max_ref_slip_ps, 5);

  // Picosecond sums are overflow-checked.
  EXPECT_THROW(fields::merge(refresh, {.ref_busy_ps = std::numeric_limits<
                                           Picoseconds>::max()}),
               dl::Error);

  // Bools merge as "any".
  traffic::TenantStats t;
  traffic::TenantStats admitted;
  admitted.admission = true;
  fields::merge(t, admitted);
  EXPECT_TRUE(t.admission);
  fields::merge(t, traffic::TenantStats{});
  EXPECT_TRUE(t.admission);
}

TEST(FieldTables, NarrowThrowsNamingTheField) {
  const json::Value big(std::uint64_t{1} << 32);
  EXPECT_EQ(fields::narrow<std::uint64_t>(big, "wide"), std::uint64_t{1} << 32);
  try {
    (void)fields::narrow<std::uint32_t>(big, "fabric_channels");
    FAIL() << "expected dl::Error";
  } catch (const dl::Error& e) {
    EXPECT_NE(std::string(e.what()).find("fabric_channels"),
              std::string::npos);
  }
}

}  // namespace
