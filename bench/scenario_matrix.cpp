// Campaign-matrix smoke bench: a declarative {hammer pattern × defense}
// grid run through the dl::scenario engine, with a machine-readable JSON
// report for CI.
//
//   $ ./scenario_matrix --fast --json BENCH_scenario_matrix.json
//
// --fast shrinks the activation budget and the grid; --full widens the
// grid to every pattern × every defense with repetitions.  The JSON report
// (structure: report_json() in src/scenario/scenario.hpp) is archived by
// CI next to the micro_ops google-benchmark output.
//
// --journal PATH enables the checkpoint journal: every finished campaign
// is appended to PATH as one JSONL line, and a re-run with the same
// journal skips the finished entries — an interrupted run resumed this way
// produces a byte-identical final JSON report (CI kills a run mid-flight
// and verifies exactly that).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "scenario/journal.hpp"
#include "scenario/scenario.hpp"

// The grid covers three stories: (1) the plain pattern x defense matrix,
// (2) multi-tenant contention through the FR-FCFS engine, and (3) the
// reactive-integrity axis — {none, DRAM-Locker, integrity-only, both}
// against hammer-under-traffic and against a (fast-trained) BFA victim —
// so the JSON report exercises every campaign family the engine supports.

namespace {

using namespace dl;

const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a path argument\n", flag);
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);
  bench::banner("Scenario matrix", "attack x defense campaign grid", scale);

  constexpr std::uint64_t kTrh = 1000;
  scenario::MatrixSpec spec;
  spec.name_prefix = "matrix";
  spec.env.geometry.channels = 1;
  spec.env.geometry.ranks = 1;
  spec.env.geometry.banks = 2;
  spec.env.geometry.subarrays_per_bank = 4;
  spec.env.geometry.rows_per_subarray = 256;
  spec.env.geometry.row_bytes = 4096;
  spec.env.disturbance.t_rh = kTrh;
  spec.env.disturbance.distance2_weight = 0.25;  // Half-Double coupling on

  spec.attack.victim_row = 40;
  spec.attack.act_budget = scale == bench::Scale::kFast ? 10000
                           : scale == bench::Scale::kFull ? 100000 : 50000;
  spec.protected_rows = {40};

  defense::DramLockerConfig locker_cfg;
  locker_cfg.protect_radius = 2;

  using rowhammer::HammerPattern;
  spec.patterns = {HammerPattern::kDoubleSided, HammerPattern::kManySided,
                   HammerPattern::kHalfDouble};
  // Seed arguments below are placeholders: expand() overrides every
  // defense seed with sub-streams derived from spec.base_seed.
  spec.defenses = {
      scenario::DefenseSpec::none(),
      scenario::DefenseSpec::counter_per_row(kTrh / 2, 2),
      scenario::DefenseSpec::graphene(kTrh / 2, 64, 2),
      scenario::DefenseSpec::counter_tree(kTrh / 2, 32, 2),
      scenario::DefenseSpec::hydra(kTrh / 2, 64, 2),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0),
  };
  if (scale != bench::Scale::kFast) {
    spec.patterns.insert(spec.patterns.begin(), HammerPattern::kSingleSided);
    spec.defenses.push_back(
        scenario::DefenseSpec::trr(0.01, 2, /*seed=*/0));
    spec.defenses.push_back(
        scenario::DefenseSpec::row_swap(kTrh, /*lazy_unswap=*/false,
                                        /*seed=*/0));
    spec.defenses.push_back(scenario::DefenseSpec::shadow(kTrh, /*seed=*/0));
  }
  spec.repetitions = scale == bench::Scale::kFull ? 3 : 1;
  spec.base_seed = 7;

  // Multi-tenant contention grid: the same attacker now shares the
  // controller with co-located serving tenants through the per-bank
  // FR-FCFS engine — {pattern} x {defense} x {tenant mix}.  The "serving"
  // mix replays a DNN weight image around the protected row plus a
  // web-serving filler; "loaded" doubles the benign readers.
  const std::uint64_t tenant_acts = spec.attack.act_budget / 2;
  const std::uint64_t reader_reqs = scale == bench::Scale::kFast ? 4000
                                    : scale == bench::Scale::kFull ? 40000
                                                                   : 20000;
  const traffic::StreamSpec reader =
      traffic::StreamSpec::weight_reader(/*base_row=*/32, /*rows=*/16,
                                         reader_reqs);
  const traffic::StreamSpec filler = traffic::StreamSpec::synthetic(
      /*base_row=*/128, /*rows=*/64, reader_reqs / 2, /*locality=*/0.4,
      /*write_fraction=*/0.2, /*seed=*/1);
  // Pattern, victim row, and act budget are placeholders: expand() drives
  // every hammer tenant from each matrix's attack declaration.
  const traffic::StreamSpec attacker = traffic::StreamSpec::hammer(
      rowhammer::HammerPattern::kDoubleSided, /*victim_row=*/40, tenant_acts);

  scenario::MatrixSpec serving = spec;
  serving.name_prefix = "contention/serving";
  serving.attack.act_budget = tenant_acts;
  serving.defenses = {
      scenario::DefenseSpec::none(),
      scenario::DefenseSpec::counter_per_row(kTrh / 2, 2),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0),
  };
  serving.patterns = {HammerPattern::kDoubleSided, HammerPattern::kManySided};
  serving.repetitions = 1;
  serving.base_seed = 21;
  serving.traffic.tenants = {reader, filler, attacker};
  serving.traffic.scheduler.batch = 2;

  scenario::MatrixSpec loaded = serving;
  loaded.name_prefix = "contention/loaded";
  loaded.base_seed = 22;
  traffic::StreamSpec reader2 = reader;
  reader2.base_row = 64;
  loaded.traffic.tenants = {reader, reader2, filler, filler, attacker};

  // Reactive-integrity axis under contention: the RADAR-style scrubber
  // joins the tenant mix as a kScrub stream, composed with and against
  // DRAM-Locker (hammer-under-traffic wing of the comparison grid).
  scenario::IntegritySpec radar;
  radar.enabled = true;
  radar.config.group_size = 64;
  scenario::MatrixSpec integrity_grid = serving;
  integrity_grid.name_prefix = "integrity";
  integrity_grid.base_seed = 23;
  integrity_grid.patterns = {HammerPattern::kDoubleSided};
  integrity_grid.defenses = {
      scenario::DefenseSpec::none(),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0),
      scenario::DefenseSpec::none().with_integrity(radar),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0)
          .with_integrity(radar),
  };
  if (scale != bench::Scale::kFast) {
    integrity_grid.patterns.push_back(HammerPattern::kManySided);
  }

  // Fault-injection & resilience wing: the same double-sided attack with a
  // deterministic fault model turned on (data faults aimed at the weight
  // region, plus defense-metadata faults), against defense cells chosen to
  // exercise the degradation ladder: an undersized lock table that forces
  // tracker-only fallback, and a swap-starved locker that degrades instead
  // of denying.
  scenario::MatrixSpec faults_grid = spec;
  faults_grid.name_prefix = "faults";
  faults_grid.base_seed = 29;
  faults_grid.patterns = {HammerPattern::kDoubleSided};
  faults_grid.repetitions = 1;
  faults_grid.env.faults.period_acts = 256;
  faults_grid.env.faults.retention_rate = 0.5;
  faults_grid.env.faults.transient_rate = 0.25;
  faults_grid.env.faults.stuck_cells = 4;
  faults_grid.env.faults.lock_evict_rate = 0.25;
  faults_grid.env.faults.remap_fault_rate = 0.1;
  faults_grid.env.faults.checksum_fault_rate = 0.25;
  faults_grid.env.faults.target_base = 32;
  faults_grid.env.faults.target_rows = 32;
  defense::DramLockerConfig tiny_locker = locker_cfg;
  tiny_locker.lock_table_entries = 2;
  defense::DramLockerConfig degrading_locker = locker_cfg;
  degrading_locker.swap_budget = 1;
  degrading_locker.degrade_on_exhaustion = true;
  degrading_locker.fallback_act_threshold = 64;
  faults_grid.defenses = {
      scenario::DefenseSpec::none(),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0),
      scenario::DefenseSpec::dram_locker(tiny_locker, /*seed=*/0),
      scenario::DefenseSpec::dram_locker(degrading_locker, /*seed=*/0),
      scenario::DefenseSpec::none().with_integrity(radar),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0)
          .with_integrity(radar),
  };

  // Sharded-fabric wing: the serving contention mix replayed over a
  // 4-channel fabric (round-robin row interleave, so every tenant's
  // working set stripes across all four channels), against the headline
  // defense cells.  Each channel owns an independent defense/disturbance
  // stack; channel 0 re-derives the single-channel seeds verbatim.
  scenario::MatrixSpec fabric_grid = serving;
  fabric_grid.name_prefix = "fabric/4ch";
  fabric_grid.base_seed = 31;
  fabric_grid.env.fabric.channels = 4;
  fabric_grid.env.fabric.interleave = dram::InterleavePolicy::kRowRoundRobin;
  fabric_grid.patterns = {HammerPattern::kDoubleSided};
  fabric_grid.defenses = {
      scenario::DefenseSpec::none(),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0),
      scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/0)
          .with_integrity(radar),
  };

  auto campaigns = scenario::expand(spec);
  const std::size_t plain_cells = campaigns.size();
  for (const auto& m : {serving, loaded, integrity_grid, faults_grid,
                        fabric_grid}) {
    auto cells = scenario::expand(m);
    campaigns.insert(campaigns.end(), std::make_move_iterator(cells.begin()),
                     std::make_move_iterator(cells.end()));
  }

  // Two hand-built resilience probes: a runaway campaign truncated by its
  // cycle budget, and a deliberately broken one (tenant stream outside the
  // geometry) whose constructor-time throw must surface as a "failed"
  // entry while every sibling campaign completes.
  scenario::HammerCampaign runaway;
  runaway.name = "resilience/runaway";
  runaway.env = spec.env;
  runaway.defense = scenario::DefenseSpec::none();
  runaway.attack = spec.attack;
  runaway.attack.pattern = HammerPattern::kDoubleSided;
  runaway.cycles = 1000000;  // would run ~forever without the budget
  runaway.budget.max_cycles = 3;
  campaigns.push_back(runaway);

  scenario::HammerCampaign broken;
  broken.name = "resilience/broken";
  broken.env = spec.env;
  broken.defense = scenario::DefenseSpec::none();
  broken.attack = spec.attack;
  broken.attack.pattern = HammerPattern::kDoubleSided;
  broken.cycles = 1;
  broken.traffic.tenants = {traffic::StreamSpec::weight_reader(
      /*base_row=*/100000, /*rows=*/16, /*requests=*/100)};
  campaigns.push_back(broken);
  std::printf("grid: %zu patterns x %zu defenses x %llu reps = %zu plain "
              "campaigns + %zu contention campaigns\n\n",
              spec.patterns.size(), spec.defenses.size(),
              static_cast<unsigned long long>(spec.repetitions), plain_cells,
              campaigns.size() - plain_cells);

  std::unique_ptr<scenario::CampaignJournal> journal;
  if (const char* jpath = flag_value(argc, argv, "--journal")) {
    journal = std::make_unique<scenario::CampaignJournal>(jpath);
    std::printf("journal: %s (%zu campaigns restored)\n\n", jpath,
                journal->loaded());
  }
  const auto results = journal ? scenario::run_journaled(campaigns, *journal)
                               : scenario::run(campaigns);

  TextTable table({"campaign", "granted", "denied", "victim flips",
                   "mitigations", "refreshes", "mitigation time (us)"});
  for (const auto& r : results) {
    table.add_row({r.name, std::to_string(r.attack.granted_acts),
                   std::to_string(r.attack.denied_acts),
                   std::to_string(r.attack.flips_in_victim),
                   std::to_string(r.tracker.mitigations),
                   std::to_string(r.tracker.victim_refreshes),
                   TextTable::num(to_seconds(r.defense_time) * 1e6, 1)});
  }
  std::printf("%s", table.to_string().c_str());

  TextTable cont({"campaign", "attacker ACT/s", "attacker denied",
                  "benign row-hit %", "benign p95 lat (ns)",
                  "victim flips"});
  for (const auto& r : results) {
    if (r.tenants.empty()) continue;
    std::uint64_t benign_hits = 0, benign_granted = 0;
    Picoseconds worst_p95 = 0;
    double acts_per_sec = 0.0;
    for (const auto& t : r.tenants) {
      if (t.kind == traffic::StreamKind::kHammer) {
        acts_per_sec += to_seconds(r.elapsed) > 0.0
                            ? static_cast<double>(t.hammer_acts) /
                                  to_seconds(r.elapsed)
                            : 0.0;
      } else {
        benign_hits += t.row_hits;
        benign_granted += t.granted;
        worst_p95 = std::max(worst_p95, t.latency_quantile(0.95));
      }
    }
    cont.add_row(
        {r.name, TextTable::num(acts_per_sec, 0),
         std::to_string(r.attack.denied_acts),
         TextTable::num(benign_granted > 0
                            ? 100.0 * static_cast<double>(benign_hits) /
                                  static_cast<double>(benign_granted)
                            : 0.0,
                        1),
         TextTable::num(to_nanoseconds(worst_p95), 0),
         std::to_string(r.attack.flips_in_victim)});
  }
  std::printf("\nmulti-tenant contention (FR-FCFS, per-bank queues):\n%s",
              cont.to_string().c_str());

  TextTable integ({"campaign", "victim flips", "detected", "corrected",
                   "zeroed", "missed", "scrub reads"});
  for (const auto& r : results) {
    if (!r.integrity_enabled) continue;
    integ.add_row({r.name, std::to_string(r.attack.flips_in_victim),
                   std::to_string(r.integrity.detections),
                   std::to_string(r.integrity.corrected_bits),
                   std::to_string(r.integrity.zeroed_groups),
                   std::to_string(r.integrity_audit.missed_bytes),
                   std::to_string(r.integrity.scrub_reads)});
  }
  std::printf("\nreactive integrity (RADAR-style scrub tenant):\n%s",
              integ.to_string().c_str());

  TextTable resil({"campaign", "status", "cycles", "fault events",
                   "lock evictions", "degraded locks", "fallback refreshes",
                   "degraded", "error"});
  for (const auto& r : results) {
    if (r.status == scenario::CampaignStatus::kOk && !r.faults_enabled &&
        !r.degraded) {
      continue;
    }
    resil.add_row({r.name, std::string(scenario::to_string(r.status)),
                   std::to_string(r.completed_cycles),
                   std::to_string(r.faults.events),
                   std::to_string(r.faults.lock_evictions),
                   std::to_string(r.locker.degraded_locks),
                   std::to_string(r.locker.fallback_refreshes),
                   r.degraded ? "yes" : "no", r.error});
  }
  std::printf("\nfault injection & resilience (status, degradation, faults):"
              "\n%s",
              resil.to_string().c_str());

  // ---- Serving wing: the always-on fabric campaign -----------------------
  // A steady-state tenant mix (web filler + DNN weight readers + a hammer
  // attacker, with the integrity scrubber as a contending tenant) streamed
  // over the fabric for several rounds, at 1 and 4 channels, reporting
  // per-tenant / per-channel SLO stats.
  traffic::StreamSpec web = filler;
  web.name = "web";
  traffic::StreamSpec weights = reader;
  weights.name = "weights";
  traffic::StreamSpec hammer_tenant = attacker;
  hammer_tenant.name = "hammer";

  scenario::ServeCampaign serve1;
  serve1.name = "serve/1ch";
  serve1.env = spec.env;
  serve1.defense = scenario::DefenseSpec::dram_locker(locker_cfg, /*seed=*/5)
                       .with_integrity(radar);
  serve1.protected_rows = {40};
  serve1.traffic.tenants = {web, weights, hammer_tenant};
  serve1.traffic.scheduler.batch = 2;
  serve1.rounds = scale == bench::Scale::kFast ? 2 : 4;

  scenario::ServeCampaign serve4 = serve1;
  serve4.name = "serve/4ch";
  serve4.env.fabric.channels = 4;
  serve4.env.fabric.interleave = dram::InterleavePolicy::kRowRoundRobin;

  // ---- Chaos / self-healing resilience grid ------------------------------
  // Row-blocked interleave gives each channel an ownable row range, so the
  // weight reader pinned to channel 1 is a failover candidate when chaos
  // kills that channel mid-run.  The resilience spec arms row retirement
  // (scrubber strikes -> per-channel spare slab) and admission control
  // bounds enqueue retries and sheds past-deadline work.
  const dram::GlobalRowId rows_per_channel = spec.env.geometry.total_rows();
  traffic::StreamSpec web_slo = web;
  web_slo.slo_p99 = 1'000'000;   // 1 us p99 target
  web_slo.deadline = 2'000'000;  // 2 us per-request deadline
  traffic::StreamSpec weights_ch1 = weights;
  weights_ch1.name = "weights-ch1";
  weights_ch1.base_row = rows_per_channel + 32;  // home: channel 1
  weights_ch1.pin_channel = 1;

  scenario::ServeCampaign chaos_base = serve4;
  chaos_base.name = "chaos/baseline";
  chaos_base.env.fabric.interleave = dram::InterleavePolicy::kRowBlocked;
  chaos_base.env.resilience.spare_rows = 8;
  chaos_base.env.resilience.strike_threshold = 2;
  chaos_base.traffic.admission.enabled = true;
  chaos_base.traffic.admission.retry_budget = 4;
  chaos_base.traffic.tenants = {web_slo, weights, weights_ch1, hammer_tenant};
  chaos_base.rounds = scale == bench::Scale::kFast ? 3 : 5;

  scenario::ServeCampaign chaos_storm = chaos_base;
  chaos_storm.name = "chaos/storm";
  chaos_storm.env.faults = faults_grid.env.faults;
  chaos_storm.chaos.storm_start = 1;
  chaos_storm.chaos.storm_rounds = 2;
  chaos_storm.chaos.period_ramp = 0.5;
  chaos_storm.chaos.min_period_acts = 32;
  chaos_storm.chaos.stuck_cells_per_round = 2;

  scenario::ServeCampaign chaos_kill = chaos_storm;
  chaos_kill.name = "chaos/kill";
  chaos_kill.chaos.kill_channel = 1;
  chaos_kill.chaos.kill_at_round = 1;
  chaos_kill.chaos.restore_at_round = 2;

  const std::vector<scenario::ServeCampaign> serve_campaigns = {
      serve1, serve4, chaos_base, chaos_storm, chaos_kill};
  std::vector<scenario::ServeCampaignResult> serve_results;
  if (journal) {
    serve_results = scenario::run_serve_journaled(serve_campaigns, *journal);
  } else {
    for (const auto& s : serve_campaigns) {
      serve_results.push_back(scenario::run_serve_isolated(s));
    }
  }

  TextTable slo({"campaign", "tenant", "granted", "denied", "rejected",
                 "p50 lat (ns)", "p99 lat (ns)", "req/s"});
  for (const auto& r : serve_results) {
    const double secs = to_seconds(r.merged.elapsed);
    for (const auto& t : r.merged.tenants) {
      slo.add_row({r.name, t.name, std::to_string(t.granted),
                   std::to_string(t.denied),
                   std::to_string(t.rejected_enqueues),
                   TextTable::num(to_nanoseconds(t.latency_quantile(0.5)), 0),
                   TextTable::num(to_nanoseconds(t.latency_quantile(0.99)), 0),
                   TextTable::num(secs > 0.0
                                      ? static_cast<double>(t.granted) / secs
                                      : 0.0,
                                  0)});
    }
  }
  std::printf("\nserving mode (steady-state SLO, merged over channels):\n%s",
              slo.to_string().c_str());

  TextTable chaos_grid({"campaign", "health", "retired", "spares left",
                        "availability", "shed", "failed", "redirected",
                        "degraded (us)", "mttr (us)"});
  for (const auto& r : serve_results) {
    if (!r.resilience_enabled && !r.chaos_enabled) continue;
    std::string health;
    for (const resilience::ChannelHealth h : r.channel_health) {
      if (!health.empty()) health += '/';
      health += resilience::to_string(h);
    }
    const auto& av = r.availability;
    chaos_grid.add_row(
        {r.name, health, std::to_string(r.resilience.retired_rows),
         std::to_string(r.resilience.spares_remaining),
         r.chaos_enabled ? TextTable::num(av.availability(), 4) : "-",
         std::to_string(av.shed), std::to_string(av.failed),
         std::to_string(av.redirected),
         TextTable::num(to_seconds(av.time_in_degraded) * 1e6, 2),
         TextTable::num(to_seconds(av.mttr) * 1e6, 2)});
  }
  std::printf("\nself-healing resilience (chaos campaigns, availability "
              "SLOs):\n%s",
              chaos_grid.to_string().c_str());

  // ---- BFA wing: the same four defense cells against a trained victim ----
  // (fast-trained; see fig_radar_compare / fig8_bfa_defense for the
  // paper-scale curves).  Deny-all stands in for an error-free DRAM-Locker.
  bench::VictimModel victim =
      bench::train_victim(bench::resnet20_cifar10(bench::Scale::kFast),
                          /*verbose=*/false);
  const scenario::VictimRef victim_ref{victim.model, *victim.qmodel,
                                       victim.sample, victim.clean_accuracy};
  scenario::BfaCampaign bfa_none;
  bfa_none.name = "bfa/none";
  bfa_none.bfa.max_iterations = scale == bench::Scale::kFull ? 25 : 10;
  bfa_none.bfa.layers_evaluated = 2;
  bfa_none.fixed_iterations = true;
  scenario::BfaCampaign bfa_locker = bfa_none;
  bfa_locker.name = "bfa/dram-locker";
  bfa_locker.gate.kind = scenario::GateSpec::Kind::kDenyAll;
  scenario::BfaCampaign bfa_integrity = bfa_none;
  bfa_integrity.name = "bfa/integrity";
  bfa_integrity.integrity = radar;
  bfa_integrity.integrity.verify_interval = 2;
  scenario::BfaCampaign bfa_both = bfa_locker;
  bfa_both.name = "bfa/dram-locker+integrity";
  bfa_both.integrity = bfa_integrity.integrity;
  const std::vector<scenario::BfaCampaign> bfa_campaigns = {
      bfa_none, bfa_locker, bfa_integrity, bfa_both};
  const auto bfa_results =
      journal ? scenario::run_bfa_journaled(victim_ref, bfa_campaigns, *journal)
              : scenario::run_bfa(victim_ref, bfa_campaigns);

  TextTable bfa_table({"campaign", "landed", "blocked", "final acc (%)",
                       "recovered (%)", "corrected", "zeroed"});
  for (const auto& r : bfa_results) {
    bfa_table.add_row(
        {r.name, std::to_string(r.flips_landed),
         std::to_string(r.flips_blocked),
         TextTable::num(r.accuracy.back() * 100, 2),
         r.integrity_enabled ? TextTable::num(r.recovered_accuracy * 100, 2)
                             : "-",
         std::to_string(r.integrity.corrected_bits),
         std::to_string(r.integrity.zeroed_groups)});
  }
  std::printf("\nBFA x defense (fast victim):\n%s",
              bfa_table.to_string().c_str());

  // Hammer claim: a DRAM-Locker cell that never degraded (no degraded
  // lock, swap, migration or channel) leaks no victim flip, and the run
  // exits 1 naming any that does.  Degraded cells, like the fault wing's
  // 2-entry lock table, fall back to trackers; they are named with their
  // leak and not held to the claim.
  std::uint64_t undefended_flips = 0;
  std::uint64_t other_defense_flips = 0;
  std::uint64_t locker_flips = 0;
  std::string degraded_cells;  // "name leaks n, ..."
  std::string leaking_cells;
  const auto append = [](std::string& list, const std::string& name,
                         std::uint64_t flips) {
    if (!list.empty()) list += ", ";
    list += name + " leaks " + std::to_string(flips);
  };
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const std::uint64_t flips = r.attack.flips_in_victim;
    switch (campaigns[i].defense.kind) {
      case scenario::DefenseSpec::Kind::kNone:
        undefended_flips += flips;
        break;
      case scenario::DefenseSpec::Kind::kDramLocker:
        if (r.degraded) {
          append(degraded_cells, r.name, flips);
        } else {
          locker_flips += flips;
          if (flips > 0) append(leaking_cells, r.name, flips);
        }
        break;
      default:
        other_defense_flips += flips;
    }
  }
  std::printf("\nshape check: undefended cells leak %llu victim flips; "
              "non-degraded DRAM-Locker cells leak %llu (expected 0: every "
              "aggressor ACT is denied); degraded DRAM-Locker cells: %s; "
              "the mitigation baselines together leak %llu — e.g. "
              "many-sided hammering splits the count across aggressors and "
              "slips between tracker mitigations, the Table I motivation "
              "for lower tracker thresholds.\n",
              static_cast<unsigned long long>(undefended_flips),
              static_cast<unsigned long long>(locker_flips),
              degraded_cells.empty() ? "none" : degraded_cells.c_str(),
              static_cast<unsigned long long>(other_defense_flips));

  if (const char* path = flag_value(argc, argv, "--json")) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return 1;
    }
    out << scenario::report_json(results, bfa_results, serve_results).dump(2)
        << '\n';
    std::printf("JSON report written to %s\n", path);
  }
  if (!leaking_cells.empty()) {
    std::fprintf(stderr,
                 "claim failed: non-degraded DRAM-Locker cells leak victim "
                 "flips: %s\n",
                 leaking_cells.c_str());
    return 1;
  }
  return 0;
}
