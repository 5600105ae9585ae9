#include "probes.hpp"

#include <algorithm>

#include "attack/bfa.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "integrity/scrubber.hpp"
#include "integrity/weight_integrity.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/tensor.hpp"
#include "traffic/engine.hpp"

namespace perfbench {

namespace {

namespace ds = dl::scenario;
using dl::dram::Counter;
using dl::dram::GlobalRowId;

constexpr int kReps = 5;
constexpr std::size_t kDramOps = 200'000;
constexpr GlobalRowId kVictimRow = 40;

/// Runs `fn` `reps` times, each under a span; returns the seconds per call.
template <typename Fn>
std::vector<double> timed(Tracer& tracer, const std::string& layer,
                          const std::string& name, int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(tracer, layer, name);
    s.push_back(time_s(fn));
  }
  return s;
}

std::string median_of(std::size_t n) {
  return "median of " + std::to_string(n);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

dl::nn::Tensor random_tensor(std::vector<std::size_t> shape, dl::Rng& rng) {
  dl::nn::Tensor t(std::move(shape));
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

// ------------------------------------------------------------------- nn

/// One convolution of the ResNet-20 victim: channels, kernel, stride, pad
/// and input side length.
struct ConvShape {
  std::size_t in, out, kernel, stride, pad, side;
  [[nodiscard]] std::size_t out_side() const {
    return (side + 2 * pad - kernel) / stride + 1;
  }
};

/// The victim's 21 convolutions (stem, 18 block convs, 2 projections).
std::vector<ConvShape> resnet20_convs(float width_mult) {
  const std::size_t w16 = dl::nn::scaled_channels(16, width_mult);
  const std::size_t w32 = dl::nn::scaled_channels(32, width_mult);
  const std::size_t w64 = dl::nn::scaled_channels(64, width_mult);
  std::vector<ConvShape> convs = {{3, w16, 3, 1, 1, 32}};
  const auto stage = [&](std::size_t in, std::size_t out, std::size_t stride,
                         std::size_t side) {
    convs.push_back({in, out, 3, stride, 1, side});
    const std::size_t s = convs.back().out_side();
    convs.push_back({out, out, 3, 1, 1, s});
    if (stride != 1 || in != out) convs.push_back({in, out, 1, stride, 0, side});
    for (int i = 0; i < 4; ++i) convs.push_back({out, out, 3, 1, 1, s});
  };
  stage(w16, w16, 1, 32);
  stage(w16, w32, 2, 32);
  stage(w32, w64, 2, 16);
  return convs;
}

void probe_nn(BfaWorkload& b, std::uint64_t seed, Tracer& tracer,
              Metrics& out) {
  Victim& v = b.victim();
  out.set("nn.train_s", b.fit_s(), "s",
          "SgdTrainer::fit, " + std::to_string(v.train.size()) + " images");

  std::vector<double> fwd, bwd;
  for (int i = 0; i < kReps; ++i) {
    v.model.zero_grad();
    dl::nn::Tensor logits;
    {
      ScopedSpan s(tracer, "nn", "Model::forward");
      fwd.push_back(
          time_s([&] { logits = v.model.forward(v.sample.images, false); }));
    }
    const dl::nn::LossResult loss =
        dl::nn::softmax_cross_entropy(logits, v.sample.labels);
    ScopedSpan s(tracer, "nn", "Model::backward");
    bwd.push_back(time_s([&] { v.model.backward(loss.grad); }));
  }
  v.model.zero_grad();
  const std::string batch =
      ", " + std::to_string(v.sample.size()) + "-image batch";
  out.set("nn.forward_ms", 1e3 * median(fwd), "ms", median_of(kReps) + batch);
  out.set("nn.backward_ms", 1e3 * median(bwd), "ms", median_of(kReps) + batch);

  // The victim's convolutions, rebuilt standalone with the same shapes:
  // Conv2d::forward (im2col + GEMM) against nn::gemm alone.
  const std::size_t n = v.sample.size();
  const std::vector<ConvShape> shapes =
      resnet20_convs(victim_config(seed, Size::kFull).width_mult);
  dl::Rng rng(derive_seed(seed, 100));
  std::vector<dl::nn::Conv2d> convs;
  convs.reserve(shapes.size());
  std::vector<dl::nn::Tensor> inputs;
  std::vector<std::vector<float>> a, bm, c;
  double flops = 0.0;
  for (const ConvShape& sh : shapes) {
    convs.emplace_back(sh.in, sh.out, sh.kernel, sh.stride, sh.pad, rng);
    inputs.push_back(random_tensor({n, sh.in, sh.side, sh.side}, rng));
    const std::size_t k = sh.in * sh.kernel * sh.kernel;
    const std::size_t cols = sh.out_side() * sh.out_side();
    a.emplace_back(sh.out * k);
    bm.emplace_back(k * cols);
    c.emplace_back(sh.out * cols);
    for (float& x : a.back()) x = static_cast<float>(rng.normal());
    for (float& x : bm.back()) x = static_cast<float>(rng.normal());
    flops += 2.0 * static_cast<double>(sh.out * k * cols * n);
  }
  const auto conv_s = timed(tracer, "nn", "Conv2d::forward x21", kReps, [&] {
    for (std::size_t i = 0; i < convs.size(); ++i) {
      (void)convs[i].forward(inputs[i], false);
    }
  });
  const auto gemm_s = timed(tracer, "nn", "gemm x21", kReps, [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const ConvShape& sh = shapes[i];
      const std::size_t k = sh.in * sh.kernel * sh.kernel;
      const std::size_t cols = sh.out_side() * sh.out_side();
      for (std::size_t img = 0; img < n; ++img) {
        dl::nn::gemm(sh.out, k, cols, a[i].data(), bm[i].data(), c[i].data());
      }
    }
  });
  out.set("nn.conv_forward_ms", 1e3 * median(conv_s), "ms",
          "21 victim-shaped Conv2d layers" + batch);
  out.set("nn.gemm_ms", 1e3 * median(gemm_s), "ms",
          "nn::gemm on the same shapes, per image");
  out.set("nn.gemm_gflops", ratio(flops, median(gemm_s)) * 1e-9, "GFLOP/s");

  const auto eval_s = timed(tracer, "nn", "evaluate_accuracy", 3, [&] {
    (void)dl::nn::evaluate_accuracy(v.model, v.test);
  });
  out.set("nn.eval_ms", 1e3 * median(eval_s), "ms",
          median_of(3) + ", " + std::to_string(v.test.size()) + " images");
}

// --------------------------------------------------- attack, integrity

void probe_attack(BfaWorkload& b, Tracer& tracer, Metrics& out) {
  Victim& v = b.victim();
  dl::attack::ProgressiveBitSearch pbs(v.model, *v.qmodel,
                                       b.campaigns().front().bfa);
  const dl::attack::FlipGate land = [](const dl::nn::BitAddress&) {
    return true;
  };
  const auto step_s =
      timed(tracer, "attack", "ProgressiveBitSearch::step", kReps,
            [&] { (void)pbs.step(v.sample, land); });
  v.qmodel->restore();
  out.set("attack.bfa_step_ms", 1e3 * median(step_s), "ms", median_of(kReps));
  out.set("attack.bfa_step_n", static_cast<double>(step_s.size()), "count");

  // Offers per step of the residual-gate campaign (exact).
  const auto& results = b.results();
  if (results.size() > 1 && results[1].accuracy.size() > 1) {
    out.set("attack.gate_offers_per_step",
            ratio(static_cast<double>(results[1].gate_attempts),
                  static_cast<double>(results[1].accuracy.size() - 1)),
            "count", "residual-gate campaign");
  }

  dl::integrity::Config cfg;
  cfg.group_size = 64;
  dl::integrity::WeightIntegrity integrity(*v.qmodel, cfg);
  const auto verify_s =
      timed(tracer, "integrity", "WeightIntegrity::verify_all", kReps,
            [&] { integrity.verify_all(); });
  out.set("integrity.verify_ms", 1e3 * median(verify_s), "ms",
          median_of(kReps));

  const auto& runs = b.run_bfa_s();
  out.set("scenario.run_bfa_s", median(runs), "s", median_of(runs.size()));
  out.set("scenario.run_bfa_n", static_cast<double>(runs.size()), "count");
}

// ------------------------------- traffic, dram, integrity scrub, core

void probe_dram(const ds::DramEnv& env, Tracer& tracer, Metrics& out) {
  const std::uint64_t rows = env.geometry.total_rows();
  // Four 64-byte reads per row visit, rows strided across both banks.
  const auto read_loop = [&](dl::dram::Controller& ctrl) {
    std::vector<std::uint8_t> buf(64);
    for (std::size_t i = 0; i < kDramOps; ++i) {
      const GlobalRowId row = (i / 4 * 37) % rows;
      (void)ctrl.read(ctrl.mapper().row_base(row) + (i % 4) * 64, buf);
    }
  };
  std::vector<double> plain, timed_s, hammer;
  for (int i = 0; i < 3; ++i) {
    dl::dram::Controller ctrl(env.geometry, env.timing);
    ScopedSpan s(tracer, "dram", "Controller::read");
    plain.push_back(time_s([&] { read_loop(ctrl); }));
  }
  for (int i = 0; i < 3; ++i) {
    dl::dram::Controller ctrl(env.geometry, env.timing);
    ctrl.set_timing_spec(dl::dram::TimingSpec{true, true});
    ScopedSpan s(tracer, "dram", "Controller::read (timed)");
    timed_s.push_back(time_s([&] { read_loop(ctrl); }));
  }
  for (int i = 0; i < 3; ++i) {
    dl::dram::Controller ctrl(env.geometry, env.timing);
    const dl::dram::PhysAddr a = ctrl.mapper().row_base(kVictimRow - 1);
    const dl::dram::PhysAddr b = ctrl.mapper().row_base(kVictimRow + 1);
    ScopedSpan s(tracer, "dram", "Controller::hammer");
    hammer.push_back(time_s([&] {
      for (std::size_t k = 0; k < kDramOps; ++k) {
        (void)ctrl.hammer(k % 2 == 0 ? a : b);
      }
    }));
  }
  const double ops = static_cast<double>(kDramOps);
  out.set("dram.read_ns", 1e9 * median(plain) / ops, "ns", median_of(3));
  out.set("dram.timed_read_ns", 1e9 * median(timed_s) / ops, "ns",
          median_of(3) + ", timing engine on");
  out.set("dram.hammer_ns", 1e9 * median(hammer) / ops, "ns", median_of(3));
}

void probe_serve(ServeWorkload& w, Tracer& tracer, Metrics& out) {
  const ds::ServeCampaign& c = w.campaign();
  const ds::ServeCampaignResult& r = w.result();
  const std::uint32_t channels = c.env.fabric.channels;
  const double serviced = static_cast<double>(r.merged.serviced);

  // Exact counts from the workload's own campaign.
  std::uint64_t rejected = 0, samples = 0, hits = 0, granted = 0;
  std::uint64_t retried = 0, shed = 0, failed = 0;
  for (const auto& t : r.merged.tenants) {
    rejected += t.rejected_enqueues;
    samples += t.queue_latency.size();
    hits += t.row_hits;
    granted += t.granted;
    retried += t.retried;
    shed += t.shed;
    failed += t.failed;
  }
  out.set("traffic.enqueue_attempts_per_req",
          ratio(serviced + static_cast<double>(rejected), serviced), "count",
          "(serviced + rejected_enqueues) / serviced");
  out.set("traffic.latency_samples", static_cast<double>(samples), "count");
  out.set("traffic.row_hit_rate",
          ratio(static_cast<double>(hits), static_cast<double>(granted)),
          "frac", "sim");
  out.set("traffic.retried", static_cast<double>(retried), "count");
  out.set("traffic.shed", static_cast<double>(shed), "count");
  out.set("traffic.failed", static_cast<double>(failed), "count");
  out.set("integrity.scrub_reads_per_req",
          ratio(static_cast<double>(r.integrity.scrub_reads), serviced),
          "count");
  const double channel_ps =
      static_cast<double>(r.merged.elapsed) * static_cast<double>(channels);
  out.set("dram.ref_busy_frac",
          ratio(static_cast<double>(r.refresh.ref_busy_ps), channel_ps), "frac",
          "sim");
  out.set("defense.swaps", static_cast<double>(r.locker.unlock_swaps),
          "count");
  out.set("defense.time_frac",
          ratio(static_cast<double>(r.defense_time), channel_ps), "frac",
          "sim");
  std::uint64_t max_ch = 0;
  for (const auto& ch : r.per_channel) max_ch = std::max(max_ch, ch.serviced);
  out.set("core.channel_imbalance",
          ratio(static_cast<double>(max_ch), serviced / channels), "ratio",
          "max / mean serviced per channel");
  out.set("resilience.retired_rows",
          static_cast<double>(r.resilience.retired_rows), "count");
  out.set("resilience.failover_reads",
          static_cast<double>(r.availability.redirected), "count");
  out.set("faults.events", static_cast<double>(r.faults.events), "count");

  // TrafficEngine::run on a one-channel replay of one round of the mix.
  std::vector<dl::traffic::StreamSpec> tenants = c.traffic.tenants;
  for (auto& t : tenants) {
    t.pin_channel = -1;
    t.base_row %= c.env.geometry.total_rows();
    t.requests = std::max<std::uint64_t>(1, t.requests / channels);
  }
  std::vector<double> engine_ns;
  for (int i = 0; i < 3; ++i) {
    dl::dram::Controller ctrl(c.env.geometry, c.env.timing);
    ctrl.set_timing_spec(c.env.timing_spec);
    dl::traffic::TrafficEngine engine(ctrl, tenants, c.traffic.scheduler,
                                      c.traffic.admission);
    dl::traffic::TrafficReport rep;
    ScopedSpan s(tracer, "traffic", "TrafficEngine::run");
    const double t = time_s([&] { rep = engine.run(); });
    engine_ns.push_back(ratio(t * 1e9, static_cast<double>(rep.serviced)));
  }
  out.set("traffic.engine_ns_per_req", median(engine_ns), "ns",
          median_of(3) + ", one-channel replay");

  probe_dram(c.env, tracer, out);

  {
    dl::dram::Controller ctrl(c.env.geometry, c.env.timing);
    std::vector<GlobalRowId> rows;
    for (GlobalRowId row = 32; row < 48; ++row) rows.push_back(row);
    dl::integrity::Config cfg;
    cfg.group_size = 64;
    dl::integrity::DramScrubber scrubber(ctrl, rows, cfg);
    const auto pass_s = timed(tracer, "integrity", "DramScrubber::scrub_pass",
                              20, [&] { scrubber.scrub_pass(); });
    out.set("integrity.scrub_pass_us", 1e6 * median(pass_s), "us",
            median_of(20) + ", 16 rows");
  }

  // core::Fabric: build time, then the campaign's rounds through
  // Fabric::serve (no scrubber, admission or chaos: the fabric's own path).
  dl::core::SystemConfig sc;
  sc.geometry = c.env.geometry;
  sc.geometry.channels = channels;
  sc.timing = c.env.timing;
  sc.interleave = c.env.fabric.interleave;
  sc.disturbance = c.env.disturbance;
  sc.timing_model = c.env.timing_spec;
  const auto build_s = timed(tracer, "core", "Fabric::Fabric", kReps,
                             [&] { dl::core::Fabric f(sc); });
  out.set("core.fabric_build_ms", 1e3 * median(build_s), "ms",
          median_of(kReps));
  dl::core::Fabric fabric(sc);
  fabric.enable_locker(c.defense.locker);
  for (const GlobalRowId row : c.protected_rows) {
    fabric.protect_physical_range(fabric.row_base(row), 1);
  }
  std::vector<double> round_s;
  double fabric_serviced = 0.0;
  for (std::uint64_t round = 0; round < c.rounds; ++round) {
    std::vector<dl::traffic::StreamSpec> roster = c.traffic.tenants;
    for (auto& t : roster) t.seed = dl::substream_seed(t.seed, 3, round);
    ScopedSpan s(tracer, "core", "Fabric::serve");
    round_s.push_back(time_s([&] {
      fabric_serviced += static_cast<double>(
          fabric.serve(std::move(roster), c.traffic.scheduler).merged.serviced);
    }));
  }
  double serve_sum = 0.0;
  for (const double s : round_s) serve_sum += s;
  out.set("core.serve_round_ms", 1e3 * median(round_s), "ms",
          median_of(round_s.size()) + " rounds");
  const dl::dram::CounterBlock totals = fabric.view().counter_totals();
  out.set("dram.acts_per_req",
          ratio(totals.value(Counter::kActivates), fabric_serviced), "count",
          "Fabric::serve counters");
  out.set("dram.row_hits_per_req",
          ratio(totals.value(Counter::kRowHits), fabric_serviced), "count",
          "Fabric::serve counters");

  const auto& runs = w.run_serve_s();
  out.set("scenario.run_serve_s", median(runs), "s", median_of(runs.size()));
  out.set("scenario.run_serve_n", static_cast<double>(runs.size()), "count");
  // Per serviced request, so admission shedding in run_serve (which the
  // fabric's own serve path does not do) does not skew the comparison.
  out.set("scenario.serial_frac",
          1.0 - ratio(ratio(serve_sum, fabric_serviced),
                      ratio(median(runs), serviced)),
          "frac", "1 - Fabric::serve s/req over run_serve s/req");
}

// ----------------------------------- defense, rowhammer, scenario, parallel

void probe_hammer(HammerWorkload& h, Tracer& tracer, Metrics& out) {
  std::uint64_t granted = 0, denied = 0, mitigations = 0, flips = 0;
  for (const auto& r : h.results()) {
    granted += r.attack.granted_acts;
    denied += r.attack.denied_acts;
    mitigations += r.tracker.mitigations;
    flips += r.total_flips;
  }
  const double acts = static_cast<double>(granted + denied);
  out.set("defense.denied_frac", ratio(static_cast<double>(denied), acts),
          "frac", "hammer grid");
  out.set("defense.mitigations", static_cast<double>(mitigations), "count");
  out.set("rowhammer.flips_per_mact",
          ratio(static_cast<double>(flips), acts / 1e6), "count");

  // Serial run_one per cell against the pool-parallel scenario::run.
  std::vector<double> one_s;
  for (const auto& cell : h.cells()) {
    ScopedSpan s(tracer, "scenario", "run_one " + cell.name);
    one_s.push_back(time_s([&] { (void)ds::run_one(cell); }));
  }
  double serial = 0.0;
  for (const double s : one_s) serial += s;
  out.set("scenario.run_one_ms", 1e3 * median(one_s), "ms",
          median_of(one_s.size()) + " cells");
  out.set("scenario.run_one_n", static_cast<double>(one_s.size()), "count");
  out.set("parallel.speedup", ratio(serial, median(h.run_s())), "ratio",
          "sum of serial run_one / scenario::run wall");

  // DRAM-Locker gate: allowed reads of an unlocked row, denied ACTs of a
  // locked aggressor row, through a one-channel gated fabric.
  const ds::DramEnv& env = h.cells().front().env;
  dl::core::SystemConfig sc;
  sc.geometry = env.geometry;
  sc.timing = env.timing;
  sc.disturbance = env.disturbance;
  dl::defense::DramLockerConfig locker;
  locker.protect_radius = 2;
  std::vector<double> allow, deny, attack;
  for (int i = 0; i < 3; ++i) {
    dl::core::Fabric fabric(sc);
    fabric.enable_locker(locker);
    fabric.protect_physical_range(fabric.row_base(kVictimRow), 1);
    std::vector<std::uint8_t> buf(64);
    const dl::dram::PhysAddr open = fabric.row_base(kVictimRow + 60);
    const dl::dram::PhysAddr locked = fabric.row_base(kVictimRow - 1);
    {
      ScopedSpan s(tracer, "defense", "gated Controller::read (allow)");
      allow.push_back(time_s([&] {
        for (std::size_t k = 0; k < kDramOps; ++k) {
          (void)fabric.read(open + (k % 64) * 64, buf);
        }
      }));
    }
    ScopedSpan s(tracer, "defense", "gated Controller::hammer (deny)");
    deny.push_back(time_s([&] {
      for (std::size_t k = 0; k < kDramOps; ++k) (void)fabric.hammer(locked);
    }));
  }
  for (int i = 0; i < 3; ++i) {
    dl::core::Fabric fabric(sc);
    dl::rowhammer::HammerResult r;
    ScopedSpan s(tracer, "rowhammer", "Fabric::hammer_attack");
    const double t = time_s([&] {
      r = fabric.hammer_attack(kVictimRow,
                               dl::rowhammer::HammerPattern::kDoubleSided,
                               kDramOps);
    });
    attack.push_back(ratio(
        t * 1e9, static_cast<double>(r.granted_acts + r.denied_acts)));
  }
  const double ops = static_cast<double>(kDramOps);
  out.set("defense.gate_allow_ns", 1e9 * median(allow) / ops, "ns",
          median_of(3));
  out.set("defense.gate_deny_ns", 1e9 * median(deny) / ops, "ns",
          median_of(3));
  out.set("rowhammer.attack_ns_per_act", median(attack), "ns", median_of(3));
}

/// The workload itself when it is of type T, else a probe-size instance of
/// `family`, set up and run once under the tracer.
template <typename T>
T& family(Workload& workload, const std::string& family_name,
          std::uint64_t seed, Tracer& tracer,
          std::unique_ptr<Workload>& holder) {
  if (auto* own = dynamic_cast<T*>(&workload)) return *own;
  holder = make_workload(family_name, seed, Size::kProbe);
  ScopedSpan s(tracer, "setup", "probe-size " + family_name);
  holder->setup(tracer);
  (void)holder->round(tracer);
  return dynamic_cast<T&>(*holder);
}

}  // namespace

void layer_metrics(Workload& workload, std::uint64_t seed, Tracer& tracer,
                   Metrics& out) {
  std::unique_ptr<Workload> bfa, serve, hammer;
  BfaWorkload& b = family<BfaWorkload>(workload, "bfa", seed, tracer, bfa);
  probe_nn(b, seed, tracer, out);
  probe_attack(b, tracer, out);
  ServeWorkload& s =
      family<ServeWorkload>(workload, "serve", seed, tracer, serve);
  probe_serve(s, tracer, out);
  HammerWorkload& h =
      family<HammerWorkload>(workload, "hammer", seed, tracer, hammer);
  probe_hammer(h, tracer, out);
}

}  // namespace perfbench
