// Tests for the sharded multi-channel fabric: FabricMapper addressing,
// tenant sharding validation, fabric campaigns (channel sweep, burst-path
// channel-0 equivalence), the serve() campaign mode (thread-count
// determinism of the serialized report), and journal resume of a
// multi-channel run.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "dram/fabric.hpp"
#include "scenario/journal.hpp"
#include "scenario/scenario.hpp"
#include "traffic/sharding.hpp"

namespace {

using namespace dl;
using dram::FabricMapper;
using dram::GlobalAddress;
using dram::InterleavePolicy;

// --- FabricMapper addressing -----------------------------------------------

class InterleaveSweep : public ::testing::TestWithParam<InterleavePolicy> {};

TEST_P(InterleaveSweep, RowTranslationRoundTrips) {
  const FabricMapper map(4, /*rows_per_channel=*/256, /*row_bytes=*/4096,
                         GetParam());
  EXPECT_EQ(map.total_rows(), 1024u);
  for (dram::GlobalRowId r = 0; r < map.total_rows(); ++r) {
    const auto c = map.channel_of(r);
    const auto local = map.local_row(r);
    EXPECT_LT(c, 4u);
    EXPECT_LT(local, 256u);
    EXPECT_EQ(map.fabric_row(c, local), r);
  }
}

TEST_P(InterleaveSweep, ByteAddressesRoundTrip) {
  const FabricMapper map(4, 256, 4096, GetParam());
  for (const dram::PhysAddr addr :
       {dram::PhysAddr{0}, dram::PhysAddr{4095}, dram::PhysAddr{4096},
        dram::PhysAddr{40 * 4096 + 17}, map.total_rows() * 4096 - 1}) {
    const GlobalAddress ga = map.decode(addr);
    EXPECT_EQ(map.encode(ga), addr);
    EXPECT_EQ(map.local_addr(ga) % 4096, addr % 4096);
  }
}

TEST_P(InterleaveSweep, LocalRangesPartitionAnyFabricRange) {
  const FabricMapper map(4, 256, 4096, GetParam());
  // Every fabric range splits into per-channel local ranges whose sizes
  // sum back to the range, and each member maps to its owning channel.
  for (const auto& [begin, end] :
       std::vector<std::pair<dram::GlobalRowId, dram::GlobalRowId>>{
           {0, 1024}, {3, 9}, {250, 260}, {7, 7}, {1000, 1024}}) {
    std::uint64_t total = 0;
    for (dram::ChannelId c = 0; c < 4; ++c) {
      const auto local = map.local_range(c, begin, end);
      total += local.size();
      for (dram::GlobalRowId l = local.begin; l < local.end; ++l) {
        const auto fabric = map.fabric_row(c, l);
        EXPECT_GE(fabric, begin);
        EXPECT_LT(fabric, end);
      }
    }
    EXPECT_EQ(total, end - begin);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, InterleaveSweep,
                         ::testing::Values(InterleavePolicy::kRowBlocked,
                                           InterleavePolicy::kRowRoundRobin));

TEST(FabricMapper, BlockedKeepsSlabsAndRoundRobinStripes) {
  const FabricMapper blocked(4, 256, 4096, InterleavePolicy::kRowBlocked);
  EXPECT_EQ(blocked.channel_of(0), 0u);
  EXPECT_EQ(blocked.channel_of(255), 0u);
  EXPECT_EQ(blocked.channel_of(256), 1u);
  const FabricMapper rr(4, 256, 4096, InterleavePolicy::kRowRoundRobin);
  EXPECT_EQ(rr.channel_of(0), 0u);
  EXPECT_EQ(rr.channel_of(1), 1u);
  EXPECT_EQ(rr.channel_of(5), 1u);
  EXPECT_EQ(rr.local_row(5), 1u);
}

// --- tenant sharding -------------------------------------------------------

TEST(Sharding, RejectsOutOfRangeTenantsWithExplicitMessages) {
  const FabricMapper map(2, 128, 4096, InterleavePolicy::kRowBlocked);
  const auto message_of = [&](const traffic::StreamSpec& spec) {
    try {
      traffic::validate_fabric_tenants(map, {spec});
    } catch (const dl::Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  auto reader = traffic::StreamSpec::weight_reader(250, 16, 100);
  EXPECT_NE(message_of(reader).find("exceed the fabric row space"),
            std::string::npos);
  auto hammer = traffic::StreamSpec::hammer(
      rowhammer::HammerPattern::kDoubleSided, 400, 100);
  EXPECT_NE(message_of(hammer).find("victim row 400"), std::string::npos);
  auto pinned = traffic::StreamSpec::weight_reader(10, 8, 100);
  pinned.pin_channel = 5;
  EXPECT_NE(message_of(pinned).find("but the fabric has 2 channels"),
            std::string::npos);
  // Pinning to a channel that does not own the rows is rejected too.
  pinned.pin_channel = 1;
  EXPECT_NE(message_of(pinned).find("not fully owned"), std::string::npos);
}

TEST(Sharding, SplitsWorkAndKeepsRosterShape) {
  const FabricMapper map(2, 128, 4096, InterleavePolicy::kRowBlocked);
  // Reader straddles both channels; hammer lives on channel 1 only.
  const std::vector<traffic::StreamSpec> tenants = {
      traffic::StreamSpec::weight_reader(120, 16, 160),
      traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                  200, 500),
  };
  const auto rosters = traffic::shard_tenants(map, tenants);
  ASSERT_EQ(rosters.size(), 2u);
  ASSERT_EQ(rosters[0].size(), 2u);
  ASSERT_EQ(rosters[1].size(), 2u);
  // Reader requests split proportionally to the 8/8 row share.
  EXPECT_EQ(rosters[0][0].requests + rosters[1][0].requests, 160u);
  EXPECT_EQ(rosters[0][0].rows, 8u);
  EXPECT_EQ(rosters[1][0].rows, 8u);
  EXPECT_EQ(rosters[1][0].base_row, 0u);  // channel-local coordinates
  // The hammer tenant is a zero-request stub on channel 0.
  EXPECT_EQ(rosters[0][1].requests, 0u);
  EXPECT_EQ(rosters[1][1].requests, 500u);
  EXPECT_EQ(rosters[1][1].victim_row, 72u);  // 200 - 128
}

// --- fabric campaigns ------------------------------------------------------

scenario::DramEnv fabric_env(std::uint32_t channels) {
  scenario::DramEnv e;
  e.geometry.channels = 1;
  e.geometry.ranks = 1;
  e.geometry.banks = 2;
  e.geometry.subarrays_per_bank = 4;
  e.geometry.rows_per_subarray = 128;
  e.geometry.row_bytes = 4096;
  e.disturbance.t_rh = 1000;
  e.disturbance_seed = 1;
  e.fabric.channels = channels;
  return e;
}

scenario::HammerCampaign fabric_campaign(std::uint32_t channels) {
  scenario::HammerCampaign c;
  c.name = "fabric";
  c.env = fabric_env(channels);
  c.attack.victim_row = 20;  // channel 0 under row-blocked interleave
  c.attack.act_budget = 4000;
  defense::DramLockerConfig locker_cfg;
  locker_cfg.protect_radius = 2;
  c.defense = scenario::DefenseSpec::dram_locker(locker_cfg, 2)
                  .with_integrity({});
  c.defense.integrity.enabled = true;
  c.protected_rows = {20};
  c.traffic.tenants = {
      traffic::StreamSpec::weight_reader(16, 8, 400),
      traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                  20, 1500),
  };
  return c;
}

TEST(FabricCampaign, RejectsMalformedSpecs) {
  auto c = fabric_campaign(2);
  c.env.geometry.channels = 2;  // channel count belongs in env.fabric
  const auto r = scenario::run_one_isolated(c);
  EXPECT_EQ(r.status, scenario::CampaignStatus::kFailed);
  EXPECT_NE(r.error.find("geometry.channels must stay 1"), std::string::npos);
  // A single-channel campaign runs on the same stacks, so it is held to
  // the same rule.
  auto single = fabric_campaign(1);
  single.env.geometry.channels = 2;
  const auto r1 = scenario::run_one_isolated(single);
  EXPECT_EQ(r1.status, scenario::CampaignStatus::kFailed);
  EXPECT_NE(r1.error.find("geometry.channels must stay 1"), std::string::npos);

  // The fabric shape goes through the same validation as core::Fabric, so
  // an absurd channel count fails up front instead of building stacks.
  auto huge = fabric_campaign(4'000'000);
  huge.defense = scenario::DefenseSpec::none();
  const auto rh = scenario::run_one_isolated(huge);
  EXPECT_EQ(rh.status, scenario::CampaignStatus::kFailed);
  EXPECT_NE(rh.error.find("exceeds the fabric limit of 64 channels"),
            std::string::npos)
      << rh.error;

  auto mismatched = fabric_campaign(2);
  mismatched.env.fabric.channel_defenses = {scenario::DefenseSpec::none()};
  const auto r2 = scenario::run_one_isolated(mismatched);
  EXPECT_EQ(r2.status, scenario::CampaignStatus::kFailed);
  EXPECT_NE(r2.error.find("one defense per channel"), std::string::npos);
  // Failed campaigns surface as status "failed" in the report.
  EXPECT_NE(scenario::to_json(r2).dump().find("\"status\":\"failed\""),
            std::string::npos);
}

TEST(FabricCampaign, ChannelSweepKeepsSlicesConsistent) {
  for (const std::uint32_t channels : {1u, 2u, 4u}) {
    const auto r = scenario::run_one(fabric_campaign(channels));
    EXPECT_EQ(r.status, scenario::CampaignStatus::kOk) << channels;
    EXPECT_EQ(r.fabric_channels, channels);
    if (channels == 1) {
      EXPECT_TRUE(r.channels.empty());
      continue;
    }
    ASSERT_EQ(r.channels.size(), channels);
    // The merged scalars are the channel-slice sums.
    std::uint64_t granted = 0, denied = 0, flips = 0;
    for (const auto& cb : r.channels) {
      granted += cb.granted_acts;
      denied += cb.denied_acts;
      flips += cb.total_flips;
    }
    EXPECT_EQ(granted, r.attack.granted_acts);
    EXPECT_EQ(denied, r.attack.denied_acts);
    EXPECT_EQ(flips, r.total_flips);
    // The attacker hammers channel 0's protected row: DRAM-Locker denies
    // every aggressor ACT there regardless of the channel count.
    EXPECT_EQ(r.attack.granted_acts, 0u);
    EXPECT_GT(r.attack.denied_acts, 0u);
    EXPECT_GT(r.locked_rows, 0u);
  }
}

TEST(FabricCampaign, BurstPathChannelZeroMatchesSingleChannel) {
  // Channel 0 keeps the declared seeds, so a burst campaign whose victim
  // lives on channel 0 replays the single-channel attack bit-for-bit.
  auto single = fabric_campaign(1);
  single.traffic.tenants.clear();
  single.defense.integrity.enabled = false;
  auto sharded = single;
  sharded.env.fabric.channels = 4;
  const auto a = scenario::run_one(single);
  const auto b = scenario::run_one(sharded);
  EXPECT_EQ(a.attack.granted_acts, b.attack.granted_acts);
  EXPECT_EQ(a.attack.denied_acts, b.attack.denied_acts);
  EXPECT_EQ(a.attack.flips_in_victim, b.attack.flips_in_victim);
  EXPECT_EQ(a.total_flips, b.total_flips);
  EXPECT_EQ(a.locked_rows, b.locked_rows);
}

// --- serve mode ------------------------------------------------------------

scenario::ServeCampaign serve_campaign() {
  scenario::ServeCampaign c;
  c.name = "serve";
  c.env = fabric_env(4);
  defense::DramLockerConfig locker_cfg;
  locker_cfg.protect_radius = 2;
  c.defense = scenario::DefenseSpec::dram_locker(locker_cfg, 2)
                  .with_integrity({});
  c.defense.integrity.enabled = true;
  c.protected_rows = {20};
  // Web filler + weight readers + a hammer attacker: the acceptance mix.
  c.traffic.tenants = {
      traffic::StreamSpec::synthetic(256, 64, 600, /*locality=*/0.4,
                                     /*write_fraction=*/0.2, /*seed=*/1),
      traffic::StreamSpec::weight_reader(16, 8, 400),
      traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                  20, 1200),
  };
  c.traffic.tenants[0].name = "web";
  c.traffic.tenants[1].name = "weights";
  c.traffic.tenants[2].name = "hammer";
  c.rounds = 2;
  return c;
}

TEST(Serve, ReportIsByteIdenticalAcrossThreadCounts) {
  parallel::set_threads(1);
  const auto serial = scenario::run_serve(serve_campaign());
  parallel::set_threads(8);
  const auto threaded = scenario::run_serve(serve_campaign());
  parallel::set_threads(0);
  EXPECT_EQ(scenario::to_json(serial).dump(2),
            scenario::to_json(threaded).dump(2));
  EXPECT_EQ(serial.status, scenario::CampaignStatus::kOk);
  EXPECT_EQ(serial.completed_rounds, 2u);
}

TEST(Serve, MergesChannelsAndReportsSlo) {
  const auto r = scenario::run_serve(serve_campaign());
  EXPECT_EQ(r.fabric_channels, 4u);
  ASSERT_EQ(r.per_channel.size(), 4u);
  std::uint64_t serviced = 0;
  for (const auto& ch : r.per_channel) serviced += ch.serviced;
  EXPECT_EQ(serviced, r.merged.serviced);
  EXPECT_GT(r.merged.serviced, 0u);
  // Roster: three declared tenants + the scrub tenant on every channel.
  ASSERT_EQ(r.merged.tenants.size(), 4u);
  EXPECT_EQ(r.merged.tenants[0].name, "web");
  EXPECT_EQ(r.merged.tenants[3].name, "scrub");
  // The attacker targets the locked row: denied fabric-wide.
  EXPECT_EQ(r.merged.tenants[2].hammer_acts, 0u);
  EXPECT_GT(r.merged.tenants[2].denied, 0u);
  // SLO surface: latency quantiles and the per-channel blocks serialize.
  const std::string text = scenario::to_json(r).dump();
  EXPECT_NE(text.find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(text.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(text.find("\"channels\""), std::string::npos);
  EXPECT_NE(text.find("\"rejected_enqueues\""), std::string::npos);
}

TEST(Serve, FailedCampaignIsIsolated) {
  auto c = serve_campaign();
  c.traffic.tenants[1].base_row = 100000;  // outside the fabric row space
  const auto r = scenario::run_serve_isolated(c);
  EXPECT_EQ(r.status, scenario::CampaignStatus::kFailed);
  EXPECT_NE(r.error.find("fabric"), std::string::npos);
}

// --- journal resume --------------------------------------------------------

TEST(FabricJournal, MultiChannelResultRoundTripsThroughResume) {
  const std::string path =
      testing::TempDir() + "dl_fabric_journal.jsonl";
  std::remove(path.c_str());
  const std::vector<scenario::HammerCampaign> campaigns = {
      fabric_campaign(4)};
  std::vector<scenario::HammerCampaignResult> first;
  {
    scenario::CampaignJournal journal(path);
    first = scenario::run_journaled(campaigns, journal);
  }
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].channels.size(), 4u);
  // A second run with the same journal replays the cached entry — the
  // fabric fields included — without re-running the campaign.
  scenario::CampaignJournal journal(path);
  EXPECT_EQ(journal.loaded(), 1u);
  const auto second = scenario::run_journaled(campaigns, journal);
  EXPECT_EQ(scenario::report_json(first).dump(2),
            scenario::report_json(second).dump(2));
  std::remove(path.c_str());
}

}  // namespace
