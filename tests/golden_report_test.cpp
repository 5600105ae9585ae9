// Golden report digests: the CRC32 of the compact JSON report of a small,
// fixed set of hammer and serve campaigns.  The 1-vs-8-thread and
// journal-resume checks compare a build against itself; these digests
// compare it against recorded reports, so a change that moves a reported
// number, a key or the key order fails here.
//
// The set covers a burst campaign with pre/post traffic and degraded locks,
// a traffic + integrity campaign, faults with row retirement draining the
// spare pool, a timed campaign, 2- and 4-channel fabrics, a burst that
// crosses refresh windows, a 4-channel serve campaign, a chaos kill, a chaos
// storm and a serve campaign that sheds load on a p99 SLO.  One more
// digest pins the core::Fabric facade (serve rounds, counters, locker
// stats and a burst attack), which no campaign report reaches.  BFA
// campaigns are left out (their accuracy curves depend on the compiler's
// floating-point code generation), and so are failed campaigns (an error
// string is not a simulated result).
//
// Simulated campaigns leave many counters at 0, so two of them written
// under each other's keys would not move a digest.  The hand-built results
// of tests/schema_pins.hpp (BFA included) give every field its own value
// and pin every report key.
//
// When a change is *meant* to move a report, re-record the digest it
// prints and say why in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/parallel.hpp"
#include "core/system.hpp"
#include "scenario/scenario.hpp"
#include "schema_pins.hpp"

namespace {

using namespace dl;
using dram::ChannelId;
using rowhammer::HammerPattern;
using scenario::DefenseSpec;
using scenario::HammerCampaign;
using scenario::ServeCampaign;
using traffic::StreamSpec;

scenario::DramEnv env(std::uint32_t channels = 1) {
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

DefenseSpec locker_with_integrity() {
  defense::DramLockerConfig cfg;
  cfg.protect_radius = 2;
  DefenseSpec d = DefenseSpec::dram_locker(cfg, 2).with_integrity({});
  return d;
}

void enable_faults(scenario::DramEnv& e) {
  e.faults.period_acts = 64;
  e.faults.transient_rate = 0.5;
  e.faults.retention_rate = 0.5;
  e.faults.stuck_cells = 2;
  e.faults.checksum_fault_rate = 0.1;
  e.faults.target_base = 16;
  e.faults.target_rows = 16;
}

HammerCampaign burst() {
  HammerCampaign c;
  c.name = "burst";
  c.env = env();
  defense::DramLockerConfig cfg;
  cfg.protect_radius = 2;
  cfg.lock_table_entries = 6;  // too few for both rows: degraded locks
  c.defense = DefenseSpec::dram_locker(cfg, 2);
  c.protected_rows = {20, 60};
  c.attack.victim_row = 20;
  c.attack.act_budget = 4000;
  c.cycles = 2;
  // Privileged reads of a locked aggressor row run the unlock SWAP.
  c.pre_traffic = {{.row = 21, .repeat = 2, .bytes = 64, .can_unlock = true}};
  c.post_traffic = {{.row = 40, .repeat = 3, .bytes = 4}};
  return c;
}

HammerCampaign traffic_integrity() {
  HammerCampaign c;
  c.name = "traffic-integrity";
  c.env = env();
  c.defense = locker_with_integrity();
  c.protected_rows = {20};
  c.traffic.tenants = {
      StreamSpec::weight_reader(16, 8, 400, 4, /*can_unlock=*/true),
      StreamSpec::synthetic(64, 32, 300, 0.4, 0.2, 3),
      StreamSpec::hammer(HammerPattern::kDoubleSided, 20, 1500),
  };
  c.cycles = 2;
  return c;
}

HammerCampaign faults() {
  HammerCampaign c;
  c.name = "faults";
  c.env = env();
  enable_faults(c.env);
  c.env.resilience.spare_rows = 1;  // one retirement drains the pool
  c.env.resilience.strike_threshold = 1;
  c.defense = DefenseSpec::counter_per_row(500, 2).with_integrity({});
  c.protected_rows = {20, 21};
  c.attack.victim_row = 20;
  c.attack.act_budget = 3000;
  c.cycles = 2;
  return c;
}

HammerCampaign timed() {
  HammerCampaign c;
  c.name = "timed";
  c.env = env();
  c.env.timing_spec = {.enabled = true, .scheduled_refresh = true};
  c.defense = DefenseSpec::row_swap(500, /*lazy_unswap=*/false, 3);
  c.traffic.tenants = {
      StreamSpec::weight_reader(64, 16, 600),
      StreamSpec::hammer(HammerPattern::kManySided, 40, 2000),
  };
  c.cycles = 2;
  return c;
}

HammerCampaign fabric2() {
  HammerCampaign c;
  c.name = "fabric2";
  c.env = env(2);
  c.defense = locker_with_integrity();
  // Channel 1 owns fabric rows [1024, 2048) under row-blocked interleave.
  c.protected_rows = {20, 1030};
  c.traffic.tenants = {
      StreamSpec::weight_reader(1016, 16, 500),
      StreamSpec::synthetic(0, 2048, 400, 0.3, 0.2, 5),
      StreamSpec::hammer(HammerPattern::kDoubleSided, 1030, 1500),
  };
  c.cycles = 2;
  return c;
}

HammerCampaign fabric4() {
  HammerCampaign c;
  c.name = "fabric4";
  c.env = env(4);
  c.env.fabric.interleave = dram::InterleavePolicy::kRowRoundRobin;
  defense::DramLockerConfig cfg;
  cfg.protect_radius = 2;
  c.env.fabric.channel_defenses = {
      DefenseSpec::dram_locker(cfg, 2), DefenseSpec::counter_per_row(500, 2),
      DefenseSpec::graphene(500, 64, 2), DefenseSpec::none()};
  c.defense = DefenseSpec::none().with_integrity({});
  c.protected_rows = {21, 22};
  c.attack.victim_row = 21;  // channel 1 under round-robin
  c.attack.act_budget = 3000;
  c.cycles = 2;
  return c;
}

// Half-Double past a distance-1 tracker with a 200 us refresh window: the
// two 20000-ACT bursts span about six windows (the others stay inside the
// first), so the accumulators reset mid-attack; 6 victim flips land.
HammerCampaign refresh_windows() {
  HammerCampaign c;
  c.name = "refresh-windows";
  c.env = env();
  c.env.timing.tREFW = 200'000'000;
  c.defense = DefenseSpec::counter_per_row(500, /*radius=*/1);
  c.attack.pattern = HammerPattern::kHalfDouble;
  c.attack.victim_row = 20;
  c.attack.act_budget = 20000;
  c.cycles = 2;
  return c;
}

ServeCampaign serve4() {
  ServeCampaign c;
  c.name = "serve4";
  c.env = env(4);
  c.env.timing_spec = {.enabled = true, .scheduled_refresh = true};
  c.defense = locker_with_integrity();
  c.protected_rows = {20};
  c.traffic.tenants = {
      StreamSpec::synthetic(256, 64, 600, 0.4, 0.2, 1),
      StreamSpec::weight_reader(16, 8, 400),
      StreamSpec::hammer(HammerPattern::kDoubleSided, 20, 1200),
  };
  c.traffic.tenants[0].name = "web";
  c.traffic.tenants[1].name = "weights";
  c.rounds = 2;
  return c;
}

ServeCampaign chaos_kill() {
  ServeCampaign c;
  c.name = "chaos-kill";
  c.env = env(2);
  c.env.resilience.spare_rows = 4;
  c.defense = DefenseSpec::none().with_integrity({});
  c.protected_rows = {18, 1024 + 18};
  c.traffic.tenants = {
      StreamSpec::weight_reader(16, 8, 400),
      StreamSpec::synthetic(64, 32, 200, 0.4, 0.2, 1),
  };
  StreamSpec pinned = StreamSpec::weight_reader(1024 + 16, 8, 300);
  pinned.pin_channel = 1;
  c.traffic.tenants.push_back(pinned);
  c.traffic.admission.enabled = true;
  c.traffic.admission.retry_budget = 2;
  c.rounds = 3;
  c.chaos.kill_channel = 1;
  c.chaos.kill_at_round = 1;
  c.chaos.restore_at_round = 2;
  return c;
}

ServeCampaign chaos_storm() {
  ServeCampaign c = chaos_kill();
  c.name = "chaos-storm";
  c.chaos = scenario::ChaosSpec{};
  c.chaos.storm_start = 0;
  c.chaos.storm_rounds = 2;
  c.chaos.period_ramp = 0.5;
  c.chaos.min_period_acts = 8;
  c.chaos.stuck_cells_per_round = 2;
  c.env.resilience.strike_threshold = 1;
  enable_faults(c.env);
  return c;
}

ServeCampaign slo_shed() {
  ServeCampaign c;
  c.name = "slo-shed";
  c.env = env(2);
  c.env.timing_spec = {.enabled = true, .scheduled_refresh = true};
  c.defense = DefenseSpec::none();
  c.traffic.tenants = {
      StreamSpec::synthetic(256, 64, 600, 0.4, 0.2, 1),
      StreamSpec::weight_reader(16, 8, 400),
      StreamSpec::hammer(HammerPattern::kDoubleSided, 1040, 600),
  };
  // Without shedding web's p99 is 2.95 us, so a 2.9 us SLO sheds part of
  // its load (348 of 1200 requests) and the deadline misses 89 of the rest.
  c.traffic.tenants[0].name = "web";
  c.traffic.tenants[0].slo_p99 = 2'900'000;
  c.traffic.tenants[0].deadline = 2'700'000;
  c.traffic.tenants[1].name = "weights";
  c.traffic.admission.enabled = true;
  c.traffic.admission.min_latency_samples = 64;
  c.rounds = 2;
  return c;
}

std::uint32_t digest(const dl::json::Value& report) {
  return dl::crc32(report.dump());
}

/// The core::Fabric facade end to end: three serve rounds of a
/// web/weights/hammer mix over a 4-channel round-robin fabric with timing
/// on and DRAM-Locker guarding row 40, then a burst attack on row 101.
/// The document holds every per-channel and merged tenant block, each
/// round's serviced count and makespan, the fabric's counter totals by
/// name, each channel's clock and locker stats, and the attack result.
dl::json::Value fabric_facade_report() {
  core::SystemConfig sc;
  sc.geometry.channels = 4;
  sc.geometry.ranks = 1;
  sc.geometry.banks = 2;
  sc.geometry.subarrays_per_bank = 4;
  sc.geometry.rows_per_subarray = 128;
  sc.geometry.row_bytes = 4096;
  sc.interleave = dram::InterleavePolicy::kRowRoundRobin;
  sc.timing_model = {.enabled = true, .scheduled_refresh = true};
  sc.disturbance.t_rh = 1000;
  sc.disturbance.distance2_weight = 0.25;
  core::Fabric fabric(sc);
  defense::DramLockerConfig cfg;
  cfg.protect_radius = 2;
  fabric.enable_locker(cfg);
  fabric.protect_physical_range(fabric.row_base(40), 1);

  std::vector<StreamSpec> mix = {
      StreamSpec::synthetic(256, 64, 600, 0.4, 0.2, 1),
      StreamSpec::weight_reader(16, 8, 400),
      StreamSpec::hammer(HammerPattern::kDoubleSided, 40, 1200),
  };
  mix[0].name = "web";
  mix[1].name = "weights";
  traffic::SchedulerConfig scheduler;
  scheduler.batch = 2;
  const auto tenant_blocks = [](const traffic::TrafficReport& rep) {
    auto v = dl::json::Value::array();
    for (const auto& t : rep.tenants) {
      v.push_back(traffic::to_json(t, rep.elapsed));
    }
    return v;
  };

  auto doc = dl::json::Value::object();
  auto rounds = dl::json::Value::array();
  for (std::uint64_t round = 0; round < 3; ++round) {
    std::vector<StreamSpec> tenants = mix;
    for (auto& t : tenants) t.seed = dl::substream_seed(t.seed, 3, round);
    const core::FabricReport rep = fabric.serve(std::move(tenants), scheduler);
    auto r = dl::json::Value::object();
    r["serviced"] = rep.merged.serviced;
    r["elapsed_ps"] = rep.merged.elapsed;
    auto channels = dl::json::Value::array();
    for (const auto& ch : rep.channels) {
      auto c = dl::json::Value::object();
      c["serviced"] = ch.serviced;
      c["elapsed_ps"] = ch.elapsed;
      c["tenants"] = tenant_blocks(ch);
      channels.push_back(std::move(c));
    }
    r["channels"] = std::move(channels);
    r["merged"] = tenant_blocks(rep.merged);
    rounds.push_back(std::move(r));
  }
  doc["rounds"] = std::move(rounds);
  doc["attack"] = dl::fields::report(fabric.hammer_attack(
      101, HammerPattern::kDoubleSided, 4000));

  auto counters = dl::json::Value::object();
  const dram::CounterBlock totals = fabric.view().counter_totals();
  for (std::size_t i = 0; i < dram::kNumCounters; ++i) {
    const auto c = static_cast<dram::Counter>(i);
    counters[dram::to_string(c)] = totals.value(c);
  }
  doc["counters"] = std::move(counters);
  auto channels = dl::json::Value::array();
  for (ChannelId c = 0; c < fabric.channels(); ++c) {
    auto ch = dl::json::Value::object();
    ch["now_ps"] = fabric.channel(c).now();
    ch["locker"] = dl::fields::report(fabric.channel(c).locker()->stats());
    channels.push_back(std::move(ch));
  }
  doc["channels"] = std::move(channels);
  return doc;
}

std::string hex(std::uint32_t crc) {
  char buf[12];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

TEST(GoldenReports, HammerCampaignDigests) {
  const struct {
    HammerCampaign campaign;
    std::uint32_t crc;
  } golden[] = {
      {burst(), 0x71b26043u},
      {traffic_integrity(), 0x9ece89dcu},
      {faults(), 0xa7877f45u},
      {timed(), 0x8c409125u},
      {fabric2(), 0x1ca5f547u},
      {fabric4(), 0x7c4d3ccau},
      {refresh_windows(), 0x5baa9690u},
  };
  for (const auto& g : golden) {
    const auto r = scenario::run_one(g.campaign);
    EXPECT_EQ(r.status, scenario::CampaignStatus::kOk) << g.campaign.name;
    EXPECT_EQ(hex(digest(scenario::to_json(r))), hex(g.crc))
        << g.campaign.name;
  }
}

TEST(GoldenReports, ServeCampaignDigests) {
  const struct {
    ServeCampaign campaign;
    std::uint32_t crc;
  } golden[] = {
      {serve4(), 0x103f883bu},
      {chaos_kill(), 0xdaab639du},
      {chaos_storm(), 0x11779f7fu},
      {slo_shed(), 0x9ff580d4u},
  };
  for (const auto& g : golden) {
    const auto r = scenario::run_serve(g.campaign);
    EXPECT_EQ(r.status, scenario::CampaignStatus::kOk) << g.campaign.name;
    EXPECT_EQ(hex(digest(scenario::to_json(r))), hex(g.crc))
        << g.campaign.name;
  }
}

TEST(GoldenReports, FabricFacadeDigest) {
  for (const std::size_t threads : {1u, 8u}) {
    parallel::set_threads(threads);
    EXPECT_EQ(hex(digest(fabric_facade_report())), hex(0xffb1479eu))
        << threads << " threads";
  }
  parallel::set_threads(0);  // back to the environment default
}

TEST(GoldenReports, SchemaPinDigests) {
  EXPECT_EQ(hex(digest(scenario::to_json(schema_pins::hammer()))),
            hex(schema_pins::kHammerCrc));
  EXPECT_EQ(hex(digest(scenario::to_json(schema_pins::serve()))),
            hex(schema_pins::kServeCrc));
  EXPECT_EQ(hex(digest(scenario::to_json(schema_pins::bfa()))),
            hex(schema_pins::kBfaCrc));
}

}  // namespace
