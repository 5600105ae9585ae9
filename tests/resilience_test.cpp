// Tests for the self-healing resilience layer: row retirement onto the
// spare slab, admission control conservation, and chaos-campaign
// availability accounting with channel failover (including
// DL_THREADS determinism and the PR-compat gating of the new report
// blocks).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "dram/controller.hpp"
#include "resilience/resilience.hpp"
#include "scenario/scenario.hpp"
#include "traffic/stream.hpp"

namespace {

using namespace dl;
using dram::Controller;
using dram::Geometry;
using resilience::ChannelHealth;
using resilience::ResilienceSpec;
using resilience::RowRetirer;

/// Forces `n` pool threads for the test body, then re-detects from the
/// environment so later suites see the DL_THREADS default again.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) { parallel::set_threads(n); }
  ~ThreadGuard() { parallel::set_threads(0); }
};

// --------------------------------------------------------- RowRetirer unit

TEST(RowRetirer, RetiresAfterThresholdStrikesAndRematerializes) {
  const Geometry g = Geometry::tiny();
  Controller ctrl{g, dram::ddr4_2400()};
  ResilienceSpec spec;
  spec.spare_rows = 4;
  spec.strike_threshold = 3;
  RowRetirer retirer(ctrl, spec);
  ctrl.add_listener(&retirer);

  const dram::GlobalRowId victim = 7;
  const std::vector<std::uint8_t> pristine(g.row_bytes, 0xAB);
  retirer.set_rematerializer(
      [&pristine](dram::GlobalRowId, std::vector<std::uint8_t>& out) {
        out = pristine;
        return true;
      });
  // The faulty physical row holds garbage the snapshot must overwrite.
  ctrl.data().write(victim, 0, std::vector<std::uint8_t>(g.row_bytes, 0xEE));

  EXPECT_FALSE(retirer.note_uncorrectable(victim, 100));
  EXPECT_FALSE(retirer.note_uncorrectable(victim, 200));
  EXPECT_TRUE(retirer.note_uncorrectable(victim, 300));

  EXPECT_TRUE(retirer.retired(victim));
  EXPECT_EQ(retirer.stats().strikes, 3u);
  EXPECT_EQ(retirer.stats().retired_rows, 1u);
  EXPECT_EQ(retirer.stats().spares_remaining, spec.spare_rows - 1);
  EXPECT_EQ(retirer.stats().rematerialized_bytes, g.row_bytes);
  EXPECT_EQ(ctrl.counters().value(dram::Counter::kRetiredRows), 1.0);

  // The logical row now lives in the spare slab...
  const dram::GlobalRowId phys = ctrl.indirection().to_physical(victim);
  EXPECT_GE(phys, retirer.spare_base());
  // ...and an accounted read returns the re-materialized bytes while the
  // activation listener tallies the remapped traffic.
  std::array<std::uint8_t, 8> buf{};
  const auto r = ctrl.read(ctrl.mapper().row_base(victim), buf);
  EXPECT_TRUE(r.granted);
  for (const std::uint8_t b : buf) EXPECT_EQ(b, 0xAB);
  EXPECT_GT(retirer.stats().remap_reads, 0u);
  EXPECT_GT(ctrl.counters().value(dram::Counter::kRemapReads), 0.0);
}

TEST(RowRetirer, StrikesOutsideTheWindowExpire) {
  Controller ctrl{Geometry::tiny(), dram::ddr4_2400()};
  ResilienceSpec spec;
  spec.spare_rows = 2;
  spec.strike_threshold = 2;
  spec.strike_window = 1000;
  RowRetirer retirer(ctrl, spec);

  EXPECT_FALSE(retirer.note_uncorrectable(3, 0));
  // 5000 - 1000 prunes the strike at t=0: still only one in the window.
  EXPECT_FALSE(retirer.note_uncorrectable(3, 5000));
  EXPECT_FALSE(retirer.retired(3));
  // A second strike inside the window retires.
  EXPECT_TRUE(retirer.note_uncorrectable(3, 5500));
  EXPECT_TRUE(retirer.retired(3));
}

TEST(RowRetirer, ExhaustedSlabDeniesFurtherRetirements) {
  Controller ctrl{Geometry::tiny(), dram::ddr4_2400()};
  ResilienceSpec spec;
  spec.spare_rows = 1;
  spec.strike_threshold = 1;
  RowRetirer retirer(ctrl, spec);

  EXPECT_TRUE(retirer.note_uncorrectable(5, 10));
  EXPECT_TRUE(retirer.exhausted());
  EXPECT_FALSE(retirer.note_uncorrectable(6, 20));
  EXPECT_EQ(retirer.stats().retires_denied, 1u);
  EXPECT_FALSE(retirer.retired(6));
  // Re-striking an already-retired row is a no-op, not a double retire.
  EXPECT_FALSE(retirer.note_uncorrectable(5, 30));
  EXPECT_EQ(retirer.stats().retired_rows, 1u);
}

TEST(RowRetirer, SpareRowsAreNeverRetiredThemselves) {
  Controller ctrl{Geometry::tiny(), dram::ddr4_2400()};
  ResilienceSpec spec;
  spec.spare_rows = 2;
  spec.strike_threshold = 1;
  RowRetirer retirer(ctrl, spec);
  EXPECT_FALSE(retirer.note_uncorrectable(retirer.spare_base(), 10));
  EXPECT_EQ(retirer.stats().retired_rows, 0u);
}

TEST(ResilienceSpec, ValidateRejectsSlabConsumingTheRowSpace) {
  ResilienceSpec spec;
  spec.spare_rows = 64;
  EXPECT_THROW(spec.validate(64), dl::Error);
  spec.spare_rows = 0;
  spec.strike_threshold = 0;
  EXPECT_THROW(spec.validate(64), dl::Error);
}

// ------------------------------------------------- scenario-level chaos

scenario::DramEnv small_env() {
  scenario::DramEnv e;
  e.geometry.channels = 1;
  e.geometry.ranks = 1;
  e.geometry.banks = 2;
  e.geometry.subarrays_per_bank = 4;
  e.geometry.rows_per_subarray = 128;
  e.geometry.row_bytes = 4096;
  e.disturbance.t_rh = 1000;
  e.disturbance_seed = 1;
  return e;
}

scenario::ServeCampaign chaos_campaign() {
  scenario::ServeCampaign c;
  c.name = "chaos";
  c.env = small_env();
  c.env.fabric.channels = 2;
  c.env.resilience.spare_rows = 4;
  c.defense = scenario::DefenseSpec::none().with_integrity({});
  c.defense.integrity.enabled = true;
  c.traffic.tenants = {
      traffic::StreamSpec::weight_reader(16, 8, 400),
      traffic::StreamSpec::synthetic(64, 32, 200, 0.4, 0.2, 1),
  };
  c.traffic.admission.enabled = true;
  c.traffic.admission.retry_budget = 2;
  const auto rows_per_channel = c.env.geometry.total_rows();
  traffic::StreamSpec pinned =
      traffic::StreamSpec::weight_reader(rows_per_channel + 16, 8, 300);
  pinned.pin_channel = 1;
  c.traffic.tenants.push_back(pinned);
  c.rounds = 3;
  c.chaos.kill_channel = 1;
  c.chaos.kill_at_round = 1;
  c.chaos.restore_at_round = 2;
  return c;
}

TEST(ChaosServe, KillCampaignReportsAvailabilityAndMttr) {
  const auto r = scenario::run_serve(chaos_campaign());
  ASSERT_EQ(r.status, scenario::CampaignStatus::kOk);
  ASSERT_TRUE(r.chaos_enabled);
  const auto& av = r.availability;
  EXPECT_GT(av.offered, 0u);
  EXPECT_GT(av.served, 0u);
  EXPECT_GT(av.availability(), 0.0);
  EXPECT_LE(av.availability(), 1.0);
  // Conservation: every offered request is served, shed, or failed.
  EXPECT_EQ(av.offered, av.served + av.shed + av.failed);
  // The pinned weight reader failed over to the replica while offline.
  EXPECT_GT(av.redirected, 0u);
  // The kill round is visible in the degraded-time and MTTR accounting.
  EXPECT_GT(av.time_in_degraded, 0);
  EXPECT_TRUE(av.restored);
  EXPECT_GT(av.mttr, 0);
  EXPECT_GT(av.first_fault_at, 0);
  // Full service was restored: every channel ends healthy.
  ASSERT_EQ(r.channel_health.size(), 2u);
  for (const ChannelHealth h : r.channel_health) {
    EXPECT_EQ(h, ChannelHealth::kHealthy);
  }
}

TEST(ChaosServe, ReportIsByteIdenticalAcrossThreadCounts) {
  std::string serial, parallel8;
  {
    ThreadGuard guard(1);
    serial = scenario::to_json(scenario::run_serve(chaos_campaign())).dump(2);
  }
  {
    ThreadGuard guard(8);
    parallel8 =
        scenario::to_json(scenario::run_serve(chaos_campaign())).dump(2);
  }
  EXPECT_EQ(serial, parallel8);
}

TEST(ChaosServe, DisabledChaosEmitsNoNewReportBlocks) {
  // A ChaosSpec-disabled, resilience-disabled serve run must render the
  // same JSON surface as before the self-healing layer existed.
  scenario::ServeCampaign plain = chaos_campaign();
  plain.chaos = scenario::ChaosSpec{};
  plain.env.resilience = ResilienceSpec{};
  plain.traffic.admission = traffic::AdmissionSpec{};
  plain.traffic.tenants.pop_back();  // drop the pinned failover tenant
  const auto r = scenario::run_serve(plain);
  ASSERT_EQ(r.status, scenario::CampaignStatus::kOk);
  EXPECT_FALSE(r.chaos_enabled);
  EXPECT_FALSE(r.resilience_enabled);
  EXPECT_TRUE(r.channel_health.empty());
  const std::string dump = scenario::to_json(r).dump(2);
  EXPECT_EQ(dump.find("availability"), std::string::npos);
  EXPECT_EQ(dump.find("resilience"), std::string::npos);
  EXPECT_EQ(dump.find("health"), std::string::npos);
  EXPECT_EQ(dump.find("admission"), std::string::npos);
}

TEST(ChaosServe, StormTightensInjectorCadence) {
  scenario::ServeCampaign storm = chaos_campaign();
  storm.name = "storm";
  storm.chaos = scenario::ChaosSpec{};
  storm.chaos.storm_start = 0;
  storm.chaos.storm_rounds = 2;
  storm.chaos.period_ramp = 0.5;
  storm.chaos.min_period_acts = 8;
  storm.chaos.stuck_cells_per_round = 2;
  storm.env.faults.period_acts = 64;
  storm.env.faults.transient_rate = 0.5;
  storm.env.faults.retention_rate = 0.5;
  storm.env.faults.target_base = 16;
  storm.env.faults.target_rows = 16;
  const auto r = scenario::run_serve(storm);
  ASSERT_EQ(r.status, scenario::CampaignStatus::kOk);
  ASSERT_TRUE(r.chaos_enabled);
  EXPECT_TRUE(r.faults_enabled);
  EXPECT_GT(r.faults.events, 0u);
  EXPECT_EQ(r.availability.offered,
            r.availability.served + r.availability.shed +
                r.availability.failed);
}

TEST(ChaosServe, RejectsSchedulesThatCannotRunAsDeclared) {
  // Each malformed schedule fails before any round runs, with a message
  // naming the field.  A ramp outside (0, 1] would convert out of the
  // integer range (undefined behaviour; in practice the storm injects
  // nothing), and a restore at or before the kill would leave the channel
  // offline for the rest of the run without a message.
  scenario::ServeCampaign storm = chaos_campaign();
  storm.chaos = scenario::ChaosSpec{};
  storm.chaos.storm_rounds = 2;
  storm.env.faults.period_acts = 64;
  storm.env.faults.transient_rate = 0.5;
  const auto error_of = [](const scenario::ServeCampaign& c) {
    const auto r = scenario::run_serve_isolated(c);
    EXPECT_EQ(r.status, scenario::CampaignStatus::kFailed);
    EXPECT_EQ(r.completed_rounds, 0u);
    return r.error;
  };
  for (const double ramp : {-0.5, 0.0, std::nan(""), 1.5, 1e30}) {
    scenario::ServeCampaign c = storm;
    c.chaos.period_ramp = ramp;
    EXPECT_NE(error_of(c).find("chaos.period_ramp"), std::string::npos)
        << ramp;
  }
  scenario::ServeCampaign floor = storm;
  floor.chaos.min_period_acts = 0;
  EXPECT_NE(error_of(floor).find("chaos.min_period_acts"), std::string::npos);

  scenario::ServeCampaign kill = chaos_campaign();
  kill.rounds = 5;
  kill.chaos.kill_at_round = 3;
  kill.chaos.restore_at_round = 2;
  EXPECT_NE(error_of(kill).find("chaos.restore_at_round"), std::string::npos);
  kill.chaos.restore_at_round = 3;
  EXPECT_NE(error_of(kill).find("chaos.restore_at_round"), std::string::npos);
  // Never restoring (0) and restoring after the kill both stay valid.
  for (const std::uint64_t restore : {0u, 4u}) {
    kill.chaos.restore_at_round = restore;
    EXPECT_EQ(scenario::run_serve(kill).status,
              scenario::CampaignStatus::kOk);
  }
  // The documented boundary ramp of 1 (no tightening) runs too.
  storm.chaos.period_ramp = 1.0;
  EXPECT_EQ(scenario::run_serve(storm).status, scenario::CampaignStatus::kOk);
}

// ------------------------------------------------ admission conservation

TEST(Admission, EveryRequestIsServedShedOrFailed) {
  // A starved scheduler (1-deep bank queues, tiny batch) forces enqueue
  // rejections; the retry budget converts the persistent ones into
  // explicit failures instead of silent drops.
  scenario::ServeCampaign c;
  c.name = "admission";
  c.env = small_env();
  c.traffic.tenants = {
      traffic::StreamSpec::weight_reader(16, 8, 500),
      traffic::StreamSpec::synthetic(64, 32, 500, 0.2, 0.2, 1),
  };
  c.traffic.scheduler.queue_capacity = 1;
  c.traffic.scheduler.batch = 1;
  c.traffic.admission.enabled = true;
  c.traffic.admission.retry_budget = 1;
  c.rounds = 1;
  const auto r = scenario::run_serve(c);
  ASSERT_EQ(r.status, scenario::CampaignStatus::kOk);
  std::uint64_t requested = 0;
  for (const auto& spec : c.traffic.tenants) requested += spec.requests;
  std::uint64_t issued = 0, shed = 0, failed = 0;
  for (const auto& t : r.merged.tenants) {
    issued += t.issued;
    shed += t.shed;
    failed += t.failed;
  }
  EXPECT_EQ(requested, issued + shed + failed);
}

}  // namespace
