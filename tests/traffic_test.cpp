// Tests for the multi-tenant traffic engine: stream generators, the
// per-bank FR-FCFS scheduler (row-hit-first wins, fairness cap, capacity),
// gate accounting, and campaign-level determinism across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "defense/dram_locker.hpp"
#include "scenario/scenario.hpp"
#include "traffic/engine.hpp"
#include "traffic/frfcfs.hpp"
#include "traffic/stream.hpp"

namespace {

using namespace dl;
using dram::Controller;
using dram::GlobalRowId;
using traffic::SchedulerConfig;
using traffic::StreamKind;
using traffic::StreamSpec;

Controller make_ctrl() {
  return Controller(dram::Geometry::tiny(), dram::ddr4_2400());
}

// ------------------------------------------------------------------ streams

TEST(TrafficStream, WeightReaderSweepsRowsSequentially) {
  Controller ctrl = make_ctrl();
  // 4 reads per 256-byte row at 64 B/access; two full sweeps over 3 rows.
  StreamSpec spec = StreamSpec::weight_reader(/*base_row=*/8, /*rows=*/3,
                                              /*requests=*/24);
  traffic::Stream stream(spec, 0, ctrl);
  std::vector<GlobalRowId> rows;
  for (int i = 0; i < 24; ++i) {
    auto req = stream.peek();
    ASSERT_TRUE(req.has_value());
    rows.push_back(dram::to_global(ctrl.geometry(),
                                   ctrl.mapper().to_location(req->addr).row));
    EXPECT_EQ(req->bytes, 64u);
    EXPECT_FALSE(req->is_write);
    stream.pop();
  }
  EXPECT_FALSE(stream.peek().has_value());
  // Row index advances every 4 requests and wraps after row 10.
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(rows[static_cast<std::size_t>(i)], 8u + (i / 4) % 3);
  }
}

TEST(TrafficStream, SyntheticStaysInDeclaredRange) {
  Controller ctrl = make_ctrl();
  StreamSpec spec = StreamSpec::synthetic(/*base_row=*/16, /*rows=*/8,
                                          /*requests=*/200, /*locality=*/0.5,
                                          /*write_fraction=*/0.3, /*seed=*/9);
  traffic::Stream stream(spec, 0, ctrl);
  std::size_t writes = 0;
  for (int i = 0; i < 200; ++i) {
    auto req = stream.peek();
    ASSERT_TRUE(req.has_value());
    const GlobalRowId row = dram::to_global(
        ctrl.geometry(), ctrl.mapper().to_location(req->addr).row);
    EXPECT_GE(row, 16u);
    EXPECT_LT(row, 24u);
    writes += req->is_write ? 1 : 0;
    stream.pop();
  }
  EXPECT_GT(writes, 0u);
  EXPECT_LT(writes, 200u);
}

TEST(TrafficStream, HammerRoundRobinsAggressors) {
  Controller ctrl = make_ctrl();
  StreamSpec spec = StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                       /*victim_row=*/20, /*acts=*/6);
  traffic::Stream stream(spec, 0, ctrl);
  std::vector<GlobalRowId> rows;
  for (int i = 0; i < 6; ++i) {
    auto req = stream.peek();
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->bytes, 0u);
    rows.push_back(ctrl.mapper().row_of(req->addr));
    stream.pop();
  }
  EXPECT_EQ(rows, (std::vector<GlobalRowId>{19, 21, 19, 21, 19, 21}));
}

// ---------------------------------------------------------------- scheduler

TEST(FrFcfsScheduler, QueueCapacityIsRespected) {
  Controller ctrl = make_ctrl();
  SchedulerConfig cfg;
  cfg.queue_capacity = 2;
  traffic::FrFcfsScheduler sched(ctrl, cfg);
  traffic::Request req;
  req.addr = ctrl.mapper().row_base(5);
  req.bytes = 64;
  EXPECT_TRUE(sched.try_enqueue(req));
  EXPECT_TRUE(sched.try_enqueue(req));
  EXPECT_FALSE(sched.try_enqueue(req));  // bank queue full
  // A different bank still has room.
  traffic::Request other = req;
  other.addr = ctrl.mapper().row_base(300);  // bank 1 in tiny geometry
  EXPECT_TRUE(sched.try_enqueue(other));
  EXPECT_EQ(sched.pending(), 3u);
}

TEST(FrFcfsScheduler, RowHitFirstBypassesConflictingHead) {
  Controller ctrl = make_ctrl();
  // Open row 5, then queue: [row 6 (conflict), row 5 (hit)].
  std::vector<std::uint8_t> buf(64);
  ctrl.read(ctrl.mapper().row_base(5), buf);
  SchedulerConfig cfg;
  cfg.batch = 2;
  traffic::FrFcfsScheduler sched(ctrl, cfg);
  traffic::Request conflict;
  conflict.addr = ctrl.mapper().row_base(6);
  conflict.bytes = 64;
  conflict.seq = 0;
  traffic::Request hit = conflict;
  hit.addr = ctrl.mapper().row_base(5);
  hit.seq = 1;
  ASSERT_TRUE(sched.try_enqueue(conflict));
  ASSERT_TRUE(sched.try_enqueue(hit));
  std::vector<std::uint64_t> order;
  sched.drain_pass([&](const traffic::Serviced& s) {
    order.push_back(s.req.seq);
    if (s.req.seq == 1) {
      EXPECT_TRUE(s.result.row_hit);
    }
  });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 0}));
}

TEST(FrFcfsScheduler, FairnessCapForcesQueueHead) {
  Controller ctrl = make_ctrl();
  std::vector<std::uint8_t> buf(64);
  ctrl.read(ctrl.mapper().row_base(5), buf);  // open row 5
  SchedulerConfig cfg;
  cfg.batch = 16;
  cfg.row_hit_cap = 2;
  cfg.queue_capacity = 16;
  traffic::FrFcfsScheduler sched(ctrl, cfg);
  // Head is a conflicting request; behind it, 8 row hits.
  traffic::Request conflict;
  conflict.addr = ctrl.mapper().row_base(6);
  conflict.bytes = 64;
  conflict.seq = 100;
  ASSERT_TRUE(sched.try_enqueue(conflict));
  for (std::uint64_t i = 0; i < 8; ++i) {
    traffic::Request hit;
    hit.addr = ctrl.mapper().row_base(5);
    hit.bytes = 64;
    hit.seq = i;
    ASSERT_TRUE(sched.try_enqueue(hit));
  }
  std::vector<std::uint64_t> order;
  sched.drain_pass([&](const traffic::Serviced& s) {
    order.push_back(s.req.seq);
  });
  ASSERT_EQ(order.size(), 9u);
  // Exactly row_hit_cap hits bypass the head before it is forced through.
  const auto head_pos = static_cast<std::size_t>(
      std::find(order.begin(), order.end(), 100u) - order.begin());
  EXPECT_EQ(head_pos, 2u);
}

TEST(FrFcfsScheduler, IndirectionSwapInvalidatesDecodeCache) {
  // Requests decode {logical, physical} once at enqueue; a swap while they
  // are queued must re-translate (epoch bump), so row-hit picks follow the
  // *current* indirection, exactly like the pre-cache scheduler.
  Controller ctrl = make_ctrl();
  std::vector<std::uint8_t> buf(64);
  ctrl.read(ctrl.mapper().row_base(5), buf);  // open physical row 5
  SchedulerConfig cfg;
  cfg.batch = 2;
  traffic::FrFcfsScheduler sched(ctrl, cfg);
  traffic::Request first;  // logical 7: conflict before and after the swap
  first.addr = ctrl.mapper().row_base(7);
  first.bytes = 64;
  first.seq = 0;
  traffic::Request second;  // logical 6: conflict now, hit after the swap
  second.addr = ctrl.mapper().row_base(6);
  second.bytes = 64;
  second.seq = 1;
  ASSERT_TRUE(sched.try_enqueue(first));
  ASSERT_TRUE(sched.try_enqueue(second));
  // Swap defense migrates logical 6 onto physical row 5 (the open row).
  ctrl.indirection().swap_logical(5, 6);
  std::vector<std::uint64_t> order;
  sched.drain_pass([&](const traffic::Serviced& s) {
    order.push_back(s.req.seq);
    if (s.req.seq == 1) {
      EXPECT_TRUE(s.result.row_hit);
    }
  });
  // Stale caches would keep seq 1 mapped to physical 6 and service FCFS
  // {0, 1}; the re-translation promotes it to a row hit.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 0}));
}

TEST(FrFcfsScheduler, RingQueueWrapsPreservingArrivalOrder) {
  // Force the index ring to wrap: fill to capacity, drain a few, refill,
  // and check plain-FCFS service follows arrival order throughout.
  Controller ctrl = make_ctrl();
  SchedulerConfig cfg;
  cfg.queue_capacity = 4;
  cfg.batch = 2;
  cfg.row_hit_first = false;  // isolate queue order from row-hit policy
  traffic::FrFcfsScheduler sched(ctrl, cfg);
  auto req = [&](std::uint64_t seq) {
    traffic::Request r;
    r.addr = ctrl.mapper().row_base(5 + seq % 3);
    r.bytes = 64;
    r.seq = seq;
    return r;
  };
  std::vector<std::uint64_t> order;
  const auto sink = [&](const traffic::Serviced& s) {
    order.push_back(s.req.seq);
  };
  std::uint64_t next = 0;
  for (; next < 4; ++next) ASSERT_TRUE(sched.try_enqueue(req(next)));
  ASSERT_FALSE(sched.try_enqueue(req(99)));  // full
  sched.drain_pass(sink);                    // services 2, head wraps
  for (; next < 6; ++next) ASSERT_TRUE(sched.try_enqueue(req(next)));
  sched.drain_all(sink);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(FrFcfsScheduler, FrFcfsBeatsFcfsOnBankConflictMix) {
  // Two weight readers thrash the same bank (different rows); FR-FCFS
  // should batch row hits and finish in less simulated time with more
  // row-buffer hits than arrival-order FCFS.
  auto run = [](bool row_hit_first) {
    Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
    SchedulerConfig cfg;
    cfg.row_hit_first = row_hit_first;
    cfg.batch = 2;
    std::vector<StreamSpec> tenants = {
        StreamSpec::weight_reader(8, 4, 256, /*burst=*/1),
        StreamSpec::weight_reader(40, 4, 256, /*burst=*/1),
    };
    traffic::TrafficEngine engine(ctrl, tenants, cfg);
    return engine.run();
  };
  const auto frfcfs = run(true);
  const auto fcfs = run(false);
  std::uint64_t frfcfs_hits = 0, fcfs_hits = 0;
  for (const auto& t : frfcfs.tenants) frfcfs_hits += t.row_hits;
  for (const auto& t : fcfs.tenants) fcfs_hits += t.row_hits;
  EXPECT_GT(frfcfs_hits, fcfs_hits);
  EXPECT_LT(frfcfs.elapsed, fcfs.elapsed);
  EXPECT_EQ(frfcfs.serviced, fcfs.serviced);
}

// ------------------------------------------------------------------- engine

TEST(TrafficEngine, ConservesRequestsAndNamesTenants) {
  Controller ctrl = make_ctrl();
  std::vector<StreamSpec> tenants = {
      StreamSpec::weight_reader(8, 4, 64),
      StreamSpec::synthetic(64, 16, 96, 0.7, 0.25, /*seed=*/3),
      StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided, 200, 40),
  };
  traffic::TrafficEngine engine(ctrl, tenants, {});
  const auto report = engine.run();
  ASSERT_EQ(report.tenants.size(), 3u);
  EXPECT_EQ(report.tenants[0].name, "t0/weight-reader");
  EXPECT_EQ(report.tenants[1].name, "t1/synthetic");
  EXPECT_EQ(report.tenants[2].name, "t2/hammer");
  EXPECT_EQ(report.serviced, 64u + 96u + 40u);
  for (const auto& t : report.tenants) {
    EXPECT_EQ(t.issued, t.granted + t.denied);
    EXPECT_EQ(t.queue_latency.size(), t.issued);
  }
  EXPECT_EQ(report.tenants[0].issued, 64u);
  EXPECT_EQ(report.tenants[0].reads, 64u);
  EXPECT_EQ(report.tenants[2].hammer_acts, 40u);
  EXPECT_GT(report.elapsed, 0);
  // The weight reader's sequential sweep keeps strong row locality even
  // under contention.
  EXPECT_GT(report.tenants[0].row_hit_rate(), 0.25);
}

TEST(TrafficEngine, GateDenialsStayOnAccountedPath) {
  Controller ctrl = make_ctrl();
  defense::DramLockerConfig cfg;
  defense::DramLocker locker(ctrl, cfg, Rng(5));
  ctrl.set_gate(&locker);
  locker.protect_data_row(20);

  std::vector<StreamSpec> tenants = {
      StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided, 20, 50),
      StreamSpec::weight_reader(40, 2, 30),
  };
  traffic::TrafficEngine engine(ctrl, tenants, {});
  const auto report = engine.run();
  // Every aggressor ACT hits a locked neighbour row and is denied.
  EXPECT_EQ(report.tenants[0].denied, 50u);
  EXPECT_EQ(report.tenants[0].hammer_acts, 0u);
  EXPECT_EQ(locker.stats().denied, 50u);
  // The benign tenant is untouched.
  EXPECT_EQ(report.tenants[1].granted, 30u);
}

TEST(TrafficEngine, LatencyQuantilesAreMonotone) {
  Controller ctrl = make_ctrl();
  std::vector<StreamSpec> tenants = {
      StreamSpec::weight_reader(8, 4, 128),
      StreamSpec::synthetic(100, 16, 128, 0.2, 0.0, /*seed=*/4),
  };
  traffic::TrafficEngine engine(ctrl, tenants, {});
  const auto report = engine.run();
  for (const auto& t : report.tenants) {
    const auto p50 = t.latency_quantile(0.50);
    const auto p95 = t.latency_quantile(0.95);
    const auto p99 = t.latency_quantile(0.99);
    EXPECT_GT(p50, 0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
  }
}

// -------------------------------------------------------- latency histogram

using traffic::LatencyHistogram;

/// Nearest-rank percentile of a sorted copy: the rule the histogram must
/// reproduce without keeping the samples.
Picoseconds sorted_vector_quantile(std::vector<Picoseconds> samples,
                                   double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// Seeded sample sets: all-equal, a single sample, duplicate-heavy (eight
/// distinct values) and wide-range (any int64, nearly all distinct).
std::vector<std::vector<Picoseconds>> histogram_sample_sets() {
  Rng rng(2024);
  std::vector<Picoseconds> duplicates(4000);
  for (auto& v : duplicates) {
    v = 1000 * static_cast<Picoseconds>(rng.next_below(8));
  }
  std::vector<Picoseconds> wide(3000);
  for (auto& v : wide) v = static_cast<Picoseconds>(rng.next_u64());
  return {std::vector<Picoseconds>(257, 1500), {42}, duplicates, wide};
}

TEST(LatencyHistogram, QuantilesMatchSortedVectorReference) {
  for (const auto& samples : histogram_sample_sets()) {
    const auto h = LatencyHistogram::fold(samples);
    EXPECT_EQ(h.size(), samples.size());
    EXPECT_FALSE(h.empty());
    for (const double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
      EXPECT_EQ(h.quantile(q), sorted_vector_quantile(samples, q))
          << samples.size() << " samples, q=" << q;
    }
  }
  const LatencyHistogram empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.quantile(0.99), 0);
}

TEST(LatencyHistogram, MergingAnySplitEqualsFoldingTheConcatenation) {
  Rng rng(7);
  for (const auto& samples : histogram_sample_sets()) {
    const auto whole = LatencyHistogram::fold(samples);
    for (int trial = 0; trial < 8; ++trial) {
      // Cut the samples into up to five contiguous parts (some may be
      // empty), fold each, and merge the parts in a shuffled order.
      std::vector<std::size_t> cuts = {0, samples.size()};
      const auto parts = 1 + rng.next_below(5);
      for (std::uint64_t p = 1; p < parts; ++p) {
        cuts.push_back(static_cast<std::size_t>(
            rng.next_below(samples.size() + 1)));
      }
      std::sort(cuts.begin(), cuts.end());
      std::vector<LatencyHistogram> folded;
      for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        folded.push_back(LatencyHistogram::fold(
            {samples.begin() + static_cast<std::ptrdiff_t>(cuts[c]),
             samples.begin() + static_cast<std::ptrdiff_t>(cuts[c + 1])}));
      }
      LatencyHistogram merged;
      for (const std::size_t i : rng.permutation(folded.size())) {
        merged.merge(folded[i]);
      }
      EXPECT_EQ(merged, whole) << samples.size() << " samples, trial "
                               << trial;
      EXPECT_EQ(merged.size(), samples.size());
    }
  }
}

// ----------------------------------------------------- scenario integration

scenario::HammerCampaign traffic_campaign(const char* name,
                                          scenario::DefenseSpec defense) {
  scenario::HammerCampaign c;
  c.name = name;
  c.env.geometry.channels = 1;
  c.env.geometry.ranks = 1;
  c.env.geometry.banks = 2;
  c.env.geometry.subarrays_per_bank = 4;
  c.env.geometry.rows_per_subarray = 128;
  c.env.geometry.row_bytes = 4096;
  c.env.disturbance.t_rh = 400;
  c.env.disturbance_seed = 1;
  c.defense = defense;
  c.attack.victim_row = 20;
  if (defense.kind == scenario::DefenseSpec::Kind::kDramLocker) {
    c.protected_rows = {20};
  }
  c.cycles = 2;
  c.traffic.tenants = {
      StreamSpec::weight_reader(16, 8, 600),
      StreamSpec::synthetic(64, 32, 400, 0.6, 0.2, /*seed=*/11),
      StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided, 20, 800),
  };
  return c;
}

TEST(ScenarioTraffic, HammerTenantFeedsAttackResult) {
  const auto r =
      scenario::run_one(traffic_campaign("t", scenario::DefenseSpec::none()));
  ASSERT_EQ(r.tenants.size(), 3u);
  // 2 cycles x 800 acts, all granted with no defense.
  EXPECT_EQ(r.attack.granted_acts, 1600u);
  EXPECT_EQ(r.attack.denied_acts, 0u);
  EXPECT_EQ(r.tenants[2].hammer_acts, 1600u);
  // The undefended double-sided attacker at T_RH=400 lands flips.
  EXPECT_GT(r.attack.flips_in_victim, 0u);
  EXPECT_GT(r.attack.elapsed, 0);
}

TEST(ScenarioTraffic, DramLockerDeniesContendedAttacker) {
  const auto defended = scenario::run_one(traffic_campaign(
      "d", scenario::DefenseSpec::dram_locker({}, /*seed=*/2)));
  EXPECT_EQ(defended.attack.granted_acts, 0u);
  EXPECT_EQ(defended.attack.denied_acts, 1600u);
  EXPECT_EQ(defended.attack.flips_in_victim, 0u);
  // Benign tenants keep flowing while the attacker is locked out.
  EXPECT_GT(defended.tenants[0].granted, 0u);
  EXPECT_GT(defended.tenants[1].granted, 0u);
}

TEST(ScenarioTraffic, ResultsAreThreadCountInvariant) {
  std::vector<scenario::HammerCampaign> campaigns = {
      traffic_campaign("a", scenario::DefenseSpec::none()),
      traffic_campaign("b", scenario::DefenseSpec::counter_per_row(200, 2)),
      traffic_campaign("c", scenario::DefenseSpec::dram_locker({}, 2)),
      traffic_campaign("d", scenario::DefenseSpec::graphene(200, 64, 2)),
  };
  parallel::set_threads(1);
  const auto serial = scenario::run(campaigns);
  parallel::set_threads(8);
  const auto threaded = scenario::run(campaigns);
  parallel::set_threads(0);
  const std::string a = scenario::report_json(serial).dump(2);
  const std::string b = scenario::report_json(threaded).dump(2);
  EXPECT_EQ(a, b);
  // Latency histograms (not just the reported percentiles) must match.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].tenants.size(), threaded[i].tenants.size());
    for (std::size_t t = 0; t < serial[i].tenants.size(); ++t) {
      EXPECT_EQ(serial[i].tenants[t].queue_latency,
                threaded[i].tenants[t].queue_latency);
    }
  }
}

TEST(ScenarioTraffic, ExpandDerivesTenantSubstreams) {
  scenario::MatrixSpec spec;
  spec.env.geometry.banks = 2;
  spec.env.geometry.subarrays_per_bank = 4;
  spec.env.geometry.rows_per_subarray = 128;
  spec.attack.victim_row = 20;
  spec.patterns = {rowhammer::HammerPattern::kDoubleSided,
                   rowhammer::HammerPattern::kManySided};
  spec.defenses = {scenario::DefenseSpec::none()};
  spec.traffic.tenants = {
      StreamSpec::synthetic(64, 16, 100, 0.5, 0.0, /*seed=*/1),
      StreamSpec::synthetic(80, 16, 100, 0.5, 0.0, /*seed=*/1),
  };
  const auto campaigns = scenario::expand(spec);
  ASSERT_EQ(campaigns.size(), 2u);
  // Tenant seeds are overridden with decorrelated sub-streams: distinct
  // across tenants of one campaign and across campaigns.
  EXPECT_NE(campaigns[0].traffic.tenants[0].seed,
            campaigns[0].traffic.tenants[1].seed);
  EXPECT_NE(campaigns[0].traffic.tenants[0].seed,
            campaigns[1].traffic.tenants[0].seed);
}

TEST(ScenarioTraffic, TenantStatsSerializeToJson) {
  const auto r =
      scenario::run_one(traffic_campaign("j", scenario::DefenseSpec::none()));
  const std::string doc = scenario::to_json(r).dump();
  EXPECT_NE(doc.find("\"tenants\""), std::string::npos);
  EXPECT_NE(doc.find("\"row_hit_rate\""), std::string::npos);
  EXPECT_NE(doc.find("\"acts_per_sec\""), std::string::npos);
  EXPECT_NE(doc.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(doc.find("\"rejected_enqueues\""), std::string::npos);
}

TEST(TrafficEngine, FullQueuesCountRejectedEnqueues) {
  Controller ctrl = make_ctrl();
  // Two tenants sweeping the same two rows fight over one bank's queue.
  std::vector<StreamSpec> tenants = {
      StreamSpec::weight_reader(8, 2, 200),
      StreamSpec::weight_reader(8, 2, 200),
  };
  SchedulerConfig cfg;
  cfg.queue_capacity = 1;
  cfg.batch = 1;
  traffic::TrafficEngine engine(ctrl, tenants, cfg);
  const auto report = engine.run();
  // Rejection is back-pressure, never request loss: everything still
  // drains, and every rejected enqueue is accounted per tenant and in the
  // controller-level counter.
  EXPECT_EQ(report.serviced, 400u);
  std::uint64_t rejected = 0;
  for (const auto& t : report.tenants) {
    EXPECT_EQ(t.issued, t.granted + t.denied);
    rejected += t.rejected_enqueues;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(ctrl.counters().value(dram::Counter::kRejectedEnqueues),
            static_cast<double>(rejected));
}

// --------------------------------------------------------------- admission

TEST(TrafficEngine, RetryBudgetFailsPersistentlyRejectedRequests) {
  Controller ctrl = make_ctrl();
  std::vector<StreamSpec> tenants = {
      StreamSpec::weight_reader(8, 2, 200),
      StreamSpec::weight_reader(8, 2, 200),
  };
  SchedulerConfig cfg;
  cfg.queue_capacity = 1;
  cfg.batch = 1;
  traffic::AdmissionSpec admission;
  admission.enabled = true;
  admission.retry_budget = 1;
  traffic::TrafficEngine engine(ctrl, tenants, cfg, admission);
  const auto report = engine.run();
  // Conservation with admission on: every declared request is issued
  // (served), shed, or failed — never silently dropped.
  std::uint64_t issued = 0, shed = 0, failed = 0, retried = 0;
  for (const auto& t : report.tenants) {
    EXPECT_TRUE(t.admission);
    issued += t.issued;
    shed += t.shed;
    failed += t.failed;
    retried += t.retried;
  }
  EXPECT_EQ(issued + shed + failed, 400u);
  EXPECT_GT(retried, 0u);
  EXPECT_GT(failed, 0u);  // budget of 1 cannot absorb the contention
}

TEST(TrafficEngine, DeadlineMissesAreCountedPerTenant) {
  Controller ctrl = make_ctrl();
  StreamSpec impossible = StreamSpec::weight_reader(8, 4, 100);
  impossible.deadline = 1;  // 1 ps: every completion misses
  StreamSpec relaxed = StreamSpec::weight_reader(16, 4, 100);
  traffic::AdmissionSpec admission;
  admission.enabled = true;
  traffic::TrafficEngine engine(ctrl, {impossible, relaxed}, {}, admission);
  const auto report = engine.run();
  EXPECT_EQ(report.tenants[0].deadline_misses, report.tenants[0].issued);
  EXPECT_EQ(report.tenants[1].deadline_misses, 0u);
}

TEST(TrafficEngine, SloBreachShedsLoad) {
  Controller ctrl = make_ctrl();
  // Heavy bank contention inflates queue latency far past a 1 ps p99
  // target, so the tenant's tail work is shed once enough samples exist.
  StreamSpec strict = StreamSpec::weight_reader(8, 2, 300);
  strict.slo_p99 = 1;
  std::vector<StreamSpec> tenants = {strict,
                                     StreamSpec::weight_reader(8, 2, 300)};
  SchedulerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.batch = 1;
  traffic::AdmissionSpec admission;
  admission.enabled = true;
  admission.min_latency_samples = 8;
  traffic::TrafficEngine engine(ctrl, tenants, cfg, admission);
  const auto report = engine.run();
  const auto& t = report.tenants[0];
  EXPECT_GT(t.shed, 0u);
  EXPECT_EQ(t.issued + t.shed + t.failed, 300u);
  // Admission off (the default) leaves the legacy path untouched: no shed
  // or failed accounting exists at all.
  Controller ctrl2 = make_ctrl();
  traffic::TrafficEngine legacy(ctrl2, tenants, cfg);
  const auto legacy_report = legacy.run();
  EXPECT_FALSE(legacy_report.tenants[0].admission);
  EXPECT_EQ(legacy_report.tenants[0].shed, 0u);
  EXPECT_EQ(legacy_report.tenants[0].issued, 300u);
}

}  // namespace
