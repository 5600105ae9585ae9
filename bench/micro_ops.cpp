// Microbenchmarks (google-benchmark) of the primitives every experiment
// rests on: lock-table lookup, controller access, hammer, RowClone/SWAP,
// µprogram execution, Monte-Carlo trials, and BFA candidate ranking.
//
// Two kinds of numbers appear here: wall-clock throughput of the simulator
// (items/s) and, as counters, the *simulated* DRAM time each operation
// consumes (ns of DRAM time per op) — the latter reproduces the latency
// building blocks used by Fig. 7(a).
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "defense/dram_locker.hpp"
#include "defense/lock_table.hpp"
#include "defense/sequencer.hpp"
#include "dram/controller.hpp"
#include "integrity/checksum.hpp"
#include "integrity/scrubber.hpp"
#include "nn/models.hpp"
#include "nn/tensor.hpp"
#include "rowhammer/attacker.hpp"
#include "scenario/scenario.hpp"
#include "traffic/engine.hpp"

namespace {

using namespace dl;

void BM_LockTableLookup(benchmark::State& state) {
  defense::LockTable table(16384);
  Rng rng(1);
  for (int i = 0; i < 8192; ++i) table.lock(rng.next_below(1 << 22));
  std::uint64_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.is_locked(row));
    row = (row + 12345) & ((1 << 22) - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockTableLookup);

void BM_ControllerRead(benchmark::State& state) {
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  std::array<std::uint8_t, 64> buf{};
  std::uint64_t addr = 0;
  Picoseconds total_sim = 0;
  for (auto _ : state) {
    const auto r = ctrl.read(addr % (dram::Geometry::tiny().total_bytes() - 64),
                             buf);
    total_sim += r.latency;
    addr += 4096;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ns_per_read"] = benchmark::Counter(
      to_nanoseconds(total_sim) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ControllerRead);

// Same sweep through the cycle-approximate timing engine: the delta vs
// BM_ControllerRead is the per-access cost of the TimingModel bookkeeping
// (bank-state updates, tFAW ring, REF schedule), and sim_ns_per_read now
// includes REF contention.
void BM_TimedControllerRead(benchmark::State& state) {
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  ctrl.set_timing_spec({.enabled = true, .scheduled_refresh = true});
  std::array<std::uint8_t, 64> buf{};
  std::uint64_t addr = 0;
  Picoseconds total_sim = 0;
  for (auto _ : state) {
    const auto r = ctrl.read(addr % (dram::Geometry::tiny().total_bytes() - 64),
                             buf);
    total_sim += r.latency;
    addr += 4096;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ns_per_read"] = benchmark::Counter(
      to_nanoseconds(total_sim) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_TimedControllerRead);

void BM_HammerActivation(benchmark::State& state) {
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  const auto base = ctrl.mapper().row_base(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.hammer(base));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HammerActivation);

// The same ACTs with the RowHammer disturbance model listening: Half-Double
// bursts on two victims in different banks (4 aggressors, each ACT adds to
// up to 4 neighbours).  A 1 ms refresh window (~21k ACTs) keeps the window
// reset on the timed path, and T_RH = 1000 lands flips inside each window.
void BM_DisturbedHammer(benchmark::State& state) {
  const dram::Geometry g = dram::Geometry::tiny();
  dram::Timing timing = dram::ddr4_2400();
  timing.tREFW = 1'000'000'000;
  dram::Controller ctrl(g, timing);
  rowhammer::DisturbanceConfig cfg;
  cfg.t_rh = 1000;
  cfg.distance2_weight = 0.25;
  rowhammer::DisturbanceModel model(ctrl, cfg, Rng(3));
  ctrl.add_listener(&model);
  std::vector<dram::PhysAddr> aggressors;
  for (const dram::GlobalRowId victim : {20u, 300u}) {
    for (const dram::GlobalRowId row : rowhammer::aggressor_rows(
             g, victim, rowhammer::HammerPattern::kHalfDouble)) {
      aggressors.push_back(ctrl.mapper().row_base(row));
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.hammer(aggressors[next]));
    if (++next == aggressors.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flips_per_mact"] = benchmark::Counter(
      1e6 * static_cast<double>(model.total_flips()) /
      static_cast<double>(state.iterations()));
  state.counters["windows"] = benchmark::Counter(
      static_cast<double>(ctrl.now() / timing.tREFW));
}
BENCHMARK(BM_DisturbedHammer);

void BM_RowClone(benchmark::State& state) {
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  const Picoseconds before = ctrl.now();
  std::int64_t clones = 0;
  for (auto _ : state) {
    ctrl.row_clone(10, 20);
    ++clones;
  }
  state.SetItemsProcessed(state.iterations());
  if (clones > 0) {
    state.counters["sim_ns_per_clone"] = benchmark::Counter(
        to_nanoseconds(ctrl.now() - before) / static_cast<double>(clones));
  }
}
BENCHMARK(BM_RowClone);

void BM_SwapMicroProgram(benchmark::State& state) {
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  defense::Sequencer seq(ctrl, Rng(7), 0.0);
  seq.load_reg(defense::kRegLocked, 10);
  seq.load_reg(defense::kRegUnlocked, 20);
  seq.load_reg(defense::kRegBuffer, 63);
  const auto program = defense::swap_program();
  const Picoseconds before = ctrl.now();
  std::int64_t swaps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.run(program));
    ++swaps;
  }
  state.SetItemsProcessed(state.iterations());
  if (swaps > 0) {
    state.counters["sim_ns_per_swap"] = benchmark::Counter(
        to_nanoseconds(ctrl.now() - before) / static_cast<double>(swaps));
  }
}
BENCHMARK(BM_SwapMicroProgram);

void BM_UopEncodeDecode(benchmark::State& state) {
  std::uint16_t word = defense::Uop::copy(2, 0).encode();
  for (auto _ : state) {
    const auto u = defense::Uop::decode(word);
    benchmark::DoNotOptimize(u);
    word = defense::Uop::copy(u.dst, static_cast<std::uint8_t>(u.src ^ 1))
               .encode();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UopEncodeDecode);

void BM_MonteCarloSwapTrial(benchmark::State& state) {
  circuit::SwapMonteCarlo mc;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(0.20, 100));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MonteCarloSwapTrial);

// Sec. IV-D hot path at experiment scale: arg 0 = trials, arg 1 = threads
// (0 = autodetect).  The acceptance target is the 10^6-trial run.
void BM_MonteCarloRun(benchmark::State& state) {
  parallel::set_threads(static_cast<std::size_t>(state.range(1)));
  circuit::SwapMonteCarlo mc;
  const auto trials = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mc.run(0.20, trials));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trials));
  parallel::set_threads(0);
}
BENCHMARK(BM_MonteCarloRun)
    ->Args({1000000, 1})
    ->Args({1000000, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ------------------------------------------------------------ NN substrate

// Conv-shaped GEMM (im2col of a 64-channel 3x3 layer on 32x32): the naive
// seed kernel vs the blocked register-tiled kernel, single-threaded, and
// the blocked kernel at the autodetected thread count.
constexpr std::size_t kGemmM = 64, kGemmK = 576, kGemmN = 1024;

std::vector<float> gemm_operand(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void BM_GemmNaive(benchmark::State& state) {
  const auto a = gemm_operand(kGemmM * kGemmK, 1);
  const auto b = gemm_operand(kGemmK * kGemmN, 2);
  std::vector<float> c(kGemmM * kGemmN);
  for (auto _ : state) {
    nn::reference::gemm(kGemmM, kGemmK, kGemmN, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kGemmM * kGemmK * kGemmN);
}
BENCHMARK(BM_GemmNaive);

void BM_GemmBlocked(benchmark::State& state) {
  parallel::set_threads(static_cast<std::size_t>(state.range(0)));
  const auto a = gemm_operand(kGemmM * kGemmK, 1);
  const auto b = gemm_operand(kGemmK * kGemmN, 2);
  std::vector<float> c(kGemmM * kGemmN);
  for (auto _ : state) {
    nn::gemm(kGemmM, kGemmK, kGemmN, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * kGemmM * kGemmK * kGemmN);
  parallel::set_threads(0);
}
BENCHMARK(BM_GemmBlocked)->Arg(1)->Arg(0)->UseRealTime();

// CNN forward pass, batch 32 (the BFA/accuracy-evaluation hot path).
// Arg = thread count (0 = autodetect).
void BM_CnnForward(benchmark::State& state) {
  parallel::set_threads(static_cast<std::size_t>(state.range(0)));
  Rng rng(11);
  nn::Model model = nn::make_resnet20(10, 0.5f, rng);
  nn::Tensor x({32, 3, 32, 32});
  Rng data_rng(5);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(x, /*train=*/false));
  }
  state.SetItemsProcessed(state.iterations() * 32);
  parallel::set_threads(0);
}
BENCHMARK(BM_CnnForward)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Multi-tenant scheduler on a bank-conflict-heavy mix: two weight readers
// thrashing the same bank, a low-locality filler, and a hammer stream, all
// at burst 1 so arrival order interleaves maximally.  Arg 0 selects the
// policy (0 = FCFS baseline, 1 = FR-FCFS).  Row-hit-first must win on both
// counters: higher row_hit_rate and less simulated DRAM time per request.
void BM_TrafficScheduler(benchmark::State& state) {
  const bool row_hit_first = state.range(0) != 0;
  Picoseconds sim = 0;
  std::uint64_t hits = 0, granted = 0, reqs = 0;
  for (auto _ : state) {
    dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
    traffic::SchedulerConfig cfg;
    cfg.row_hit_first = row_hit_first;
    cfg.batch = 2;
    std::vector<traffic::StreamSpec> tenants = {
        traffic::StreamSpec::weight_reader(8, 4, 512, /*burst=*/1),
        traffic::StreamSpec::weight_reader(40, 4, 512, /*burst=*/1),
        traffic::StreamSpec::synthetic(72, 16, 256, /*locality=*/0.2,
                                       /*write_fraction=*/0.25, /*seed=*/9,
                                       /*burst=*/1),
        traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                    /*victim_row=*/130, 256, /*burst=*/1),
    };
    traffic::TrafficEngine engine(ctrl, std::move(tenants), cfg);
    const auto report = engine.run();
    sim += report.elapsed;
    reqs += report.serviced;
    for (const auto& t : report.tenants) {
      hits += t.row_hits;
      granted += t.granted;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(reqs));
  if (reqs > 0) {
    state.counters["sim_ns_per_req"] = benchmark::Counter(
        to_nanoseconds(sim) / static_cast<double>(reqs));
    state.counters["row_hit_rate"] = benchmark::Counter(
        static_cast<double>(hits) / static_cast<double>(granted));
  }
}
BENCHMARK(BM_TrafficScheduler)
    ->ArgName("frfcfs")
    ->Arg(0)
    ->Arg(1);

// Scheduler enqueue→service round trip at a fixed queue depth (arg):
// each iteration fills one bank's queue to the target depth with a
// conflict/hit row mix, then drains it.  Pins the index-ring removal
// (formerly O(n) vector::erase) and the decode-once address caching under
// load — per-request cost should stay near-flat as depth grows.
void BM_EnqueueService(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  traffic::SchedulerConfig cfg;
  cfg.queue_capacity = depth;
  cfg.batch = depth;
  traffic::FrFcfsScheduler sched(ctrl, cfg);
  // Four rows of one bank: enough conflicts to exercise mid-queue row-hit
  // picks, enough hits that pick() walks past the head.
  const std::array<dram::PhysAddr, 4> bases = {
      ctrl.mapper().row_base(1), ctrl.mapper().row_base(3),
      ctrl.mapper().row_base(5), ctrl.mapper().row_base(7)};
  std::uint64_t served = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < depth; ++i) {
      traffic::Request req;
      req.addr = bases[i % bases.size()];
      req.bytes = 64;
      req.seq = i;
      sched.try_enqueue(req);
    }
    sched.drain_all([](const traffic::Serviced& s) {
      benchmark::DoNotOptimize(s.result.latency);
    });
    served += depth;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
}
BENCHMARK(BM_EnqueueService)->ArgName("depth")->Arg(4)->Arg(16)->Arg(64);

void BM_DramLockerGateAllow(benchmark::State& state) {
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  defense::DramLockerConfig cfg;
  cfg.reserved_rows_per_subarray = 4;
  defense::DramLocker locker(ctrl, cfg, Rng(5));
  ctrl.set_gate(&locker);
  locker.protect_data_row(20);
  std::array<std::uint8_t, 8> buf{};
  const auto base = ctrl.mapper().row_base(40);  // unlocked row
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.read(base, buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramLockerGateAllow);

void BM_DramLockerGateDeny(benchmark::State& state) {
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  defense::DramLockerConfig cfg;
  cfg.reserved_rows_per_subarray = 4;
  defense::DramLocker locker(ctrl, cfg, Rng(5));
  ctrl.set_gate(&locker);
  locker.protect_data_row(20);
  const auto base = ctrl.mapper().row_base(19);  // locked row
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.hammer(base));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramLockerGateDeny);

void BM_ChecksumVerify(benchmark::State& state) {
  // Clean-path group verification over a 64 KiB image — the hot loop of
  // every scrub pass / weight sweep (arg: scheme, 0 = parity2d,
  // 1 = additive).
  integrity::Config cfg;
  cfg.scheme = state.range(0) == 0 ? integrity::Scheme::kParity2D
                                   : integrity::Scheme::kAdditive;
  cfg.group_size = 64;
  std::vector<std::uint8_t> image(64 * 1024);
  Rng rng(11);
  for (auto& b : image) b = static_cast<std::uint8_t>(rng.next_u64());
  integrity::BlockChecksums sums(cfg, image);
  const std::span<const std::uint8_t> view(image);
  for (auto _ : state) {
    for (std::size_t g = 0; g < sums.group_count(); ++g) {
      const auto [off, len] = sums.group_range(g);
      benchmark::DoNotOptimize(sums.diagnose(g, view.subspan(off, len)));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ChecksumVerify)->ArgName("scheme")->Arg(0)->Arg(1);

// Sharded-fabric serving throughput: one serve() round of a four-tenant
// mix over a 1- vs 4-channel fabric (arg 0 = channels, arg 1 = threads,
// 0 = autodetect).  Channels run independent engines over the pool, so the
// 4-channel × autodetect cell should show near-linear aggregate speedup on
// a multi-core host.
void BM_FabricServe(benchmark::State& state) {
  parallel::set_threads(static_cast<std::size_t>(state.range(1)));
  scenario::ServeCampaign campaign;
  campaign.name = "bench";
  campaign.env.geometry.channels = 1;
  campaign.env.geometry.banks = 2;
  campaign.env.geometry.subarrays_per_bank = 4;
  campaign.env.geometry.rows_per_subarray = 256;
  campaign.env.geometry.row_bytes = 4096;
  campaign.env.fabric.channels = static_cast<std::uint32_t>(state.range(0));
  campaign.env.fabric.interleave = dram::InterleavePolicy::kRowRoundRobin;
  campaign.traffic.tenants = {
      traffic::StreamSpec::weight_reader(/*base_row=*/32, /*rows=*/64, 4096),
      traffic::StreamSpec::synthetic(/*base_row=*/256, /*rows=*/256, 2048,
                                     /*locality=*/0.4, /*write_fraction=*/0.2,
                                     /*seed=*/1),
      traffic::StreamSpec::weight_reader(/*base_row=*/512, /*rows=*/64, 4096),
      traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                  /*victim_row=*/40, 2048),
  };
  campaign.traffic.scheduler.batch = 2;
  // Several rounds so the steady-state engine work dominates the one-time
  // per-channel stack construction (serve() is the long-running mode).
  campaign.rounds = 8;
  std::uint64_t serviced = 0;
  for (auto _ : state) {
    const auto r = scenario::run_serve(campaign);
    serviced += r.merged.serviced;
    benchmark::DoNotOptimize(r.merged.serviced);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(serviced));
  parallel::set_threads(0);
}
BENCHMARK(BM_FabricServe)
    ->ArgNames({"channels", "threads"})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Serve round with the timing engine on (2 channels, serial): the delta vs
// the untimed BM_FabricServe cells is the end-to-end cost of cycle-
// approximate timing plus scheduled REF on the multi-tenant drain path.
void BM_TimedServe(benchmark::State& state) {
  parallel::set_threads(1);
  scenario::ServeCampaign campaign;
  campaign.name = "bench-timed";
  campaign.env.geometry.channels = 1;
  campaign.env.geometry.banks = 2;
  campaign.env.geometry.subarrays_per_bank = 4;
  campaign.env.geometry.rows_per_subarray = 256;
  campaign.env.geometry.row_bytes = 4096;
  campaign.env.fabric.channels = 2;
  campaign.env.fabric.interleave = dram::InterleavePolicy::kRowRoundRobin;
  campaign.env.timing_spec = {.enabled = true, .scheduled_refresh = true};
  campaign.traffic.tenants = {
      traffic::StreamSpec::weight_reader(/*base_row=*/32, /*rows=*/64, 2048),
      traffic::StreamSpec::synthetic(/*base_row=*/256, /*rows=*/256, 1024,
                                     /*locality=*/0.4, /*write_fraction=*/0.2,
                                     /*seed=*/1),
      traffic::StreamSpec::hammer(rowhammer::HammerPattern::kDoubleSided,
                                  /*victim_row=*/40, 1024),
  };
  campaign.traffic.scheduler.batch = 2;
  campaign.rounds = 4;
  std::uint64_t serviced = 0;
  std::uint64_t refs = 0;
  for (auto _ : state) {
    const auto r = scenario::run_serve(campaign);
    serviced += r.merged.serviced;
    refs += r.refresh.refs_issued;
    benchmark::DoNotOptimize(r.merged.serviced);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(serviced));
  if (state.iterations() > 0) {
    state.counters["refs_per_round"] = benchmark::Counter(
        static_cast<double>(refs) /
        static_cast<double>(state.iterations() * campaign.rounds));
  }
  parallel::set_threads(0);
}
BENCHMARK(BM_TimedServe)->Unit(benchmark::kMillisecond)->UseRealTime();

// Full chaos campaign (2 channels, serial): resilience + admission armed,
// fault storm ramping from round 0, channel 1 killed mid-run and restored.
// The delta vs BM_TimedServe prices the whole self-healing ladder —
// retirement bookkeeping, failover mirroring, availability accounting —
// on the serve path.
void BM_ChaosServe(benchmark::State& state) {
  parallel::set_threads(1);
  scenario::ServeCampaign campaign;
  campaign.name = "bench-chaos";
  campaign.env.geometry.channels = 1;
  campaign.env.geometry.banks = 2;
  campaign.env.geometry.subarrays_per_bank = 4;
  campaign.env.geometry.rows_per_subarray = 256;
  campaign.env.geometry.row_bytes = 4096;
  campaign.env.fabric.channels = 2;
  campaign.env.resilience.spare_rows = 8;
  campaign.env.resilience.strike_threshold = 2;
  campaign.env.faults.period_acts = 128;
  campaign.env.faults.transient_rate = 0.5;
  campaign.env.faults.retention_rate = 0.5;
  campaign.env.faults.target_base = 32;
  campaign.env.faults.target_rows = 32;
  campaign.defense = scenario::DefenseSpec::none().with_integrity({});
  campaign.defense.integrity.enabled = true;
  campaign.traffic.admission.enabled = true;
  campaign.traffic.tenants = {
      traffic::StreamSpec::weight_reader(/*base_row=*/32, /*rows=*/64, 2048),
      traffic::StreamSpec::synthetic(/*base_row=*/256, /*rows=*/256, 1024,
                                     /*locality=*/0.4, /*write_fraction=*/0.2,
                                     /*seed=*/1),
  };
  traffic::StreamSpec pinned = traffic::StreamSpec::weight_reader(
      /*base_row=*/campaign.env.geometry.total_rows() + 32, /*rows=*/64,
      1024);
  pinned.pin_channel = 1;
  campaign.traffic.tenants.push_back(pinned);
  campaign.traffic.scheduler.batch = 2;
  campaign.rounds = 4;
  campaign.chaos.storm_start = 0;
  campaign.chaos.storm_rounds = 2;
  campaign.chaos.min_period_acts = 32;
  campaign.chaos.stuck_cells_per_round = 2;
  campaign.chaos.kill_channel = 1;
  campaign.chaos.kill_at_round = 1;
  campaign.chaos.restore_at_round = 2;
  std::uint64_t serviced = 0;
  double availability = 0.0;
  for (auto _ : state) {
    const auto r = scenario::run_serve(campaign);
    serviced += r.merged.serviced;
    availability += r.availability.availability();
    benchmark::DoNotOptimize(r.merged.serviced);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(serviced));
  if (state.iterations() > 0) {
    state.counters["availability"] = benchmark::Counter(
        availability / static_cast<double>(state.iterations()));
  }
  parallel::set_threads(0);
}
BENCHMARK(BM_ChaosServe)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ScrubPass(benchmark::State& state) {
  // One clean scrub sweep of 8 rows through the controller (accounted
  // reads + group verification); sim_ns counts the DRAM time one pass
  // costs — the scrub-bandwidth building block.
  dram::Controller ctrl(dram::Geometry::tiny(), dram::ddr4_2400());
  integrity::Config cfg;
  cfg.group_size = 64;
  integrity::DramScrubber scrubber(ctrl, {8, 9, 10, 11, 12, 13, 14, 15},
                                   cfg);
  const Picoseconds start = ctrl.now();
  for (auto _ : state) {
    scrubber.scrub_pass();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(scrubber.stats().scrub_reads));
  if (state.iterations() > 0) {
    state.counters["sim_ns_per_pass"] = benchmark::Counter(
        to_nanoseconds(ctrl.now() - start) /
        static_cast<double>(state.iterations()));
  }
}
BENCHMARK(BM_ScrubPass);

}  // namespace

BENCHMARK_MAIN();
