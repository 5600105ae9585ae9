// Tests for the declarative campaign engine.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/parallel.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace dl;
using scenario::DefenseSpec;
using scenario::HammerCampaign;
using scenario::HammerCampaignResult;

scenario::DramEnv small_env(std::uint64_t t_rh = 1000) {
  scenario::DramEnv e;
  e.geometry.channels = 1;
  e.geometry.ranks = 1;
  e.geometry.banks = 2;
  e.geometry.subarrays_per_bank = 4;
  e.geometry.rows_per_subarray = 128;
  e.geometry.row_bytes = 4096;
  e.disturbance.t_rh = t_rh;
  e.disturbance_seed = 1;
  return e;
}

HammerCampaign small_campaign(const char* name, DefenseSpec defense,
                              std::uint64_t budget = 5000) {
  HammerCampaign c;
  c.name = name;
  c.env = small_env();
  c.defense = defense;
  c.attack.victim_row = 20;
  c.attack.act_budget = budget;
  if (defense.kind == DefenseSpec::Kind::kDramLocker) {
    c.protected_rows = {20};
  }
  return c;
}

void expect_equal(const HammerCampaignResult& a,
                  const HammerCampaignResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.attack.granted_acts, b.attack.granted_acts);
  EXPECT_EQ(a.attack.denied_acts, b.attack.denied_acts);
  EXPECT_EQ(a.attack.flips_in_victim, b.attack.flips_in_victim);
  EXPECT_EQ(a.attack.flips_elsewhere, b.attack.flips_elsewhere);
  EXPECT_EQ(a.attack.elapsed, b.attack.elapsed);
  EXPECT_EQ(a.tracker.observed_acts, b.tracker.observed_acts);
  EXPECT_EQ(a.tracker.mitigations, b.tracker.mitigations);
  EXPECT_EQ(a.tracker.victim_refreshes, b.tracker.victim_refreshes);
  EXPECT_EQ(a.locker.denied, b.locker.denied);
  EXPECT_EQ(a.locker.unlock_swaps, b.locker.unlock_swaps);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_EQ(a.rowclones, b.rowclones);
  EXPECT_EQ(a.total_flips, b.total_flips);
  EXPECT_EQ(a.defense_time, b.defense_time);
  EXPECT_EQ(a.elapsed, b.elapsed);
}

std::vector<HammerCampaign> mixed_campaigns() {
  defense::DramLockerConfig lcfg;
  lcfg.protect_radius = 2;
  return {
      small_campaign("none", DefenseSpec::none()),
      small_campaign("cpr", DefenseSpec::counter_per_row(500, 2)),
      small_campaign("graphene", DefenseSpec::graphene(500, 64, 2)),
      small_campaign("tree", DefenseSpec::counter_tree(500, 32, 2)),
      small_campaign("hydra", DefenseSpec::hydra(500, 64, 2)),
      small_campaign("trr", DefenseSpec::trr(0.02, 1, 11)),
      small_campaign("locker", DefenseSpec::dram_locker(lcfg, 5)),
  };
}

TEST(ScenarioTest, RunMatchesRunOne) {
  const auto campaigns = mixed_campaigns();
  const auto fanned = scenario::run(campaigns);
  ASSERT_EQ(fanned.size(), campaigns.size());
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const auto serial = scenario::run_one(campaigns[i]);
    expect_equal(serial, fanned[i]);
  }
}

TEST(ScenarioTest, ResultsBitIdenticalAcrossThreadCounts) {
  const auto campaigns = mixed_campaigns();
  parallel::set_threads(1);
  const auto serial = scenario::run(campaigns);
  parallel::set_threads(8);
  const auto threaded = scenario::run(campaigns);
  parallel::set_threads(0);  // back to the environment default
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_equal(serial[i], threaded[i]);
  }
}

TEST(ScenarioTest, DramLockerCampaignDeniesEverything) {
  defense::DramLockerConfig lcfg;
  lcfg.protect_radius = 2;
  const auto r = scenario::run_one(
      small_campaign("locker", DefenseSpec::dram_locker(lcfg, 5)));
  EXPECT_EQ(r.attack.granted_acts, 0u);
  EXPECT_EQ(r.attack.denied_acts, 5000u);
  EXPECT_EQ(r.attack.flips_in_victim, 0u);
  EXPECT_GT(r.locked_rows, 0u);
  EXPECT_EQ(r.locker.denied, 5000u);
}

TEST(ScenarioTest, UndefendedCampaignLeaksFlips) {
  const auto r = scenario::run_one(
      small_campaign("none", DefenseSpec::none(), /*budget=*/20000));
  EXPECT_EQ(r.attack.granted_acts, 20000u);
  EXPECT_GT(r.attack.flips_in_victim, 0u);
  EXPECT_EQ(r.total_flips,
            r.attack.flips_in_victim + r.attack.flips_elsewhere);
}

TEST(ScenarioTest, TrafficCyclesDriveUnlockSwaps) {
  // DRAM-Locker campaign where legitimate traffic touches a locked row
  // each cycle: the unlock SWAP must show up in the stats.
  defense::DramLockerConfig lcfg;
  lcfg.protect_radius = 1;
  lcfg.relock_rw_interval = 10;
  HammerCampaign c = small_campaign("unlock", DefenseSpec::dram_locker(lcfg, 2),
                                    /*budget=*/50);
  c.cycles = 5;
  c.pre_traffic = {{.row = 19, .repeat = 1, .bytes = 4, .can_unlock = true}};
  c.post_traffic = {{.row = 60, .repeat = 15, .bytes = 4}};
  const auto r = scenario::run_one(c);
  EXPECT_GT(r.locker.unlock_swaps, 0u);
  EXPECT_GT(r.rowclones, 0u);
}

TEST(ScenarioTest, ExpandBuildsFullMatrixWithDistinctSeeds) {
  scenario::MatrixSpec spec;
  spec.env = small_env();
  spec.attack.victim_row = 20;
  spec.attack.act_budget = 100;
  spec.patterns = {rowhammer::HammerPattern::kDoubleSided,
                   rowhammer::HammerPattern::kHalfDouble};
  spec.defenses = {DefenseSpec::none(), DefenseSpec::counter_per_row(500, 2)};
  spec.repetitions = 2;
  const auto campaigns = scenario::expand(spec);
  ASSERT_EQ(campaigns.size(), 8u);

  // Every campaign gets its own decorrelated streams and a unique name.
  std::set<std::uint64_t> disturbance_seeds;
  std::set<std::string> names;
  for (const auto& c : campaigns) {
    disturbance_seeds.insert(c.env.disturbance_seed);
    names.insert(c.name);
  }
  EXPECT_EQ(disturbance_seeds.size(), campaigns.size());
  EXPECT_EQ(names.size(), campaigns.size());

  // Expansion is deterministic: same spec, same campaigns.
  const auto again = scenario::expand(spec);
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    EXPECT_EQ(campaigns[i].name, again[i].name);
    EXPECT_EQ(campaigns[i].env.disturbance_seed,
              again[i].env.disturbance_seed);
    EXPECT_EQ(campaigns[i].defense.seed, again[i].defense.seed);
  }
}

TEST(ScenarioTest, ExpandDisambiguatesParameterSweeps) {
  // Sweeping a parameter of one defense kind must still yield unique
  // campaign names (they key the report rows).
  scenario::MatrixSpec spec;
  spec.env = small_env();
  spec.attack.victim_row = 20;
  spec.attack.act_budget = 100;
  spec.patterns = {rowhammer::HammerPattern::kDoubleSided};
  spec.defenses = {DefenseSpec::counter_per_row(250, 2),
                   DefenseSpec::counter_per_row(500, 2),
                   DefenseSpec::none()};
  const auto campaigns = scenario::expand(spec);
  ASSERT_EQ(campaigns.size(), 3u);
  std::set<std::string> names;
  for (const auto& c : campaigns) names.insert(c.name);
  EXPECT_EQ(names.size(), campaigns.size());
  // The singleton kind keeps its plain name.
  EXPECT_EQ(campaigns[2].name, "campaign/double-sided/none");
}

TEST(ScenarioTest, JsonReportCarriesCampaignStats) {
  const auto results = scenario::run(
      {small_campaign("none", DefenseSpec::none(), /*budget=*/100)});
  const auto doc = scenario::report_json(results);
  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"hammer_campaigns\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"none\""), std::string::npos);
  EXPECT_NE(text.find("\"granted_acts\":100"), std::string::npos);
  // Pretty-printing keeps the same content.
  EXPECT_NE(doc.dump(2).find("\"granted_acts\": 100"), std::string::npos);
}

// ---------------------------------------------- error isolation & budgets

TEST(ScenarioTest, ThrowingCampaignFailsWithoutKillingSiblings) {
  auto good = small_campaign("good", DefenseSpec::none(), 2000);
  HammerCampaign broken = good;
  broken.name = "broken";
  // A tenant stream outside the geometry throws inside campaign setup.
  broken.traffic.tenants = {
      dl::traffic::StreamSpec::weight_reader(1u << 20, 8, 100)};
  auto good2 = small_campaign("good2", DefenseSpec::none(), 2000);

  const auto results = scenario::run({good, broken, good2});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, scenario::CampaignStatus::kOk);
  EXPECT_EQ(results[2].status, scenario::CampaignStatus::kOk);
  EXPECT_EQ(results[0].attack.granted_acts, 2000u);
  EXPECT_EQ(results[2].attack.granted_acts, 2000u);
  EXPECT_EQ(results[1].status, scenario::CampaignStatus::kFailed);
  EXPECT_NE(results[1].error.find("exceed the fabric row space"),
            std::string::npos);
  EXPECT_EQ(results[1].attack.granted_acts, 0u);

  const std::string text = scenario::report_json(results).dump();
  EXPECT_NE(text.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(text.find("\"error\":"), std::string::npos);
  EXPECT_NE(text.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ScenarioTest, CycleBudgetTruncatesCampaign) {
  auto c = small_campaign("budgeted", DefenseSpec::none(), 500);
  c.cycles = 50;
  c.budget.max_cycles = 4;
  const auto r = scenario::run_one(c);
  EXPECT_EQ(r.status, scenario::CampaignStatus::kTruncated);
  EXPECT_EQ(r.completed_cycles, 4u);
  EXPECT_EQ(r.attack.granted_acts, 4u * 500u);
  EXPECT_NE(scenario::report_json({r}).dump().find("\"status\":\"truncated\""),
            std::string::npos);
}

TEST(ScenarioTest, ActBudgetTruncatesCampaign) {
  auto c = small_campaign("act-budgeted", DefenseSpec::none(), 500);
  c.cycles = 50;
  c.budget.max_acts = 1200;  // hit mid-way through cycle 3
  const auto r = scenario::run_one(c);
  EXPECT_EQ(r.status, scenario::CampaignStatus::kTruncated);
  EXPECT_LT(r.completed_cycles, 50u);
  EXPECT_GE(r.attack.granted_acts, 1200u);  // budget checked per cycle
}

TEST(ScenarioTest, FaultCampaignIsDeterministicAndReported) {
  auto c = small_campaign("faulty", DefenseSpec::none(), 3000);
  c.env.faults.period_acts = 128;
  c.env.faults.retention_rate = 0.5;
  c.env.faults.transient_rate = 0.5;
  c.env.faults.stuck_cells = 2;

  parallel::set_threads(1);
  const auto serial = scenario::run({c});
  parallel::set_threads(8);
  const auto threaded = scenario::run({c});
  parallel::set_threads(0);
  EXPECT_EQ(scenario::report_json(serial).dump(2),
            scenario::report_json(threaded).dump(2));

  const auto& r = serial[0];
  ASSERT_TRUE(r.faults_enabled);
  EXPECT_GT(r.faults.events, 0u);
  EXPECT_GT(r.faults.retention_faults + r.faults.transient_faults, 0u);
  const std::string text = scenario::report_json(serial).dump();
  EXPECT_NE(text.find("\"faults\":"), std::string::npos);
  EXPECT_NE(text.find("\"retention_faults\""), std::string::npos);
}

TEST(ScenarioTest, ExpandDerivesFaultSeedsPerCell) {
  scenario::MatrixSpec spec;
  spec.env = small_env();
  spec.env.faults.period_acts = 64;
  spec.env.faults.transient_rate = 1.0;
  spec.attack.victim_row = 20;
  spec.attack.act_budget = 100;
  spec.patterns = {rowhammer::HammerPattern::kDoubleSided};
  spec.defenses = {DefenseSpec::none(), DefenseSpec::none()};
  spec.budget.max_cycles = 7;
  const auto campaigns = scenario::expand(spec);
  ASSERT_EQ(campaigns.size(), 2u);
  EXPECT_NE(campaigns[0].env.faults.seed, campaigns[1].env.faults.seed);
  EXPECT_EQ(campaigns[0].budget.max_cycles, 7u);  // budget reaches every cell
}

}  // namespace
