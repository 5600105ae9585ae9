#include "families.hpp"

#include "common/rng.hpp"
#include "nn/models.hpp"

namespace perfbench {

namespace ds = dl::scenario;
using dl::rowhammer::HammerPattern;

namespace {

// Seed purposes (derive_seed's `what`).
enum : std::uint64_t {
  kVictimSeed = 1,
  kGateSeed,
  kMatrixSeed,
  kWebSeed,
  kLockerSeed,
  kFaultSeed,
  kDisturbSeed,
};

constexpr dl::dram::GlobalRowId kVictimRow = 40;

/// The scenario_matrix geometry: 2 banks x 4 subarrays x 256 rows of 4 KiB
/// per channel.  Few banks keep the FR-FCFS queues contended.
ds::DramEnv base_env(std::uint64_t seed) {
  ds::DramEnv env;
  env.geometry.channels = 1;
  env.geometry.ranks = 1;
  env.geometry.banks = 2;
  env.geometry.subarrays_per_bank = 4;
  env.geometry.rows_per_subarray = 256;
  env.geometry.row_bytes = 4096;
  env.disturbance.t_rh = 1000;
  env.disturbance.distance2_weight = 0.25;  // Half-Double coupling on
  env.disturbance_seed = derive_seed(seed, kDisturbSeed);
  return env;
}

dl::defense::DramLockerConfig locker_config() {
  dl::defense::DramLockerConfig cfg;
  cfg.protect_radius = 2;
  return cfg;
}

ds::IntegritySpec radar() {
  ds::IntegritySpec spec;
  spec.enabled = true;
  spec.config.group_size = 64;
  return spec;
}

/// Per-round request budgets of the web/weights/hammer mix.
struct Mix {
  std::uint64_t weights = 0;
  std::uint64_t web = 0;
  std::uint64_t hammer = 0;
  std::uint64_t rounds = 0;
};

Mix serve_mix(Size size) {
  return size == Size::kFull ? Mix{120'000, 60'000, 90'000, 8}
                             : Mix{40'000, 20'000, 30'000, 6};
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t what) {
  return dl::substream_seed(seed, /*epoch=*/0xBE7C, what);
}

// ---------------------------------------------------------------- bfa

VictimConfig victim_config(std::uint64_t seed, Size size) {
  VictimConfig c;
  c.seed = derive_seed(seed, kVictimSeed);
  if (size == Size::kProbe) {
    c.train_samples = 128;
    c.epochs = 1;
  }
  return c;
}

Victim make_victim(const VictimConfig& config) {
  const dl::nn::SynthConfig synth = dl::nn::synth_cifar10();
  Victim v;
  v.train = dl::nn::make_synth_cifar(synth, config.train_samples,
                                     config.seed + 1);
  v.test = dl::nn::make_synth_cifar(synth, config.test_samples,
                                    config.seed + 2);
  v.sample = dl::nn::make_synth_cifar(synth, config.sample_samples,
                                      config.seed + 3);
  dl::Rng rng(config.seed);
  v.model = dl::nn::make_resnet20(synth.num_classes, config.width_mult, rng);
  return v;
}

dl::nn::SgdConfig victim_sgd(const VictimConfig& config) {
  dl::nn::SgdConfig s;
  s.epochs = config.epochs;
  s.batch_size = 32;
  s.lr = 0.08f;
  s.lr_decay = 0.8f;
  return s;
}

void quantize_victim(Victim& victim) {
  victim.qmodel = std::make_unique<dl::nn::QuantizedModel>(victim.model);
  victim.clean_accuracy = dl::nn::evaluate_accuracy(victim.model, victim.test);
}

std::vector<ds::BfaCampaign> bfa_campaigns(std::uint64_t seed, Size size) {
  ds::BfaCampaign none;
  none.name = "bfa/none";
  none.bfa.max_iterations = size == Size::kFull ? 3 : 2;
  none.bfa.layers_evaluated = 2;
  none.fixed_iterations = true;

  ds::BfaCampaign residual = none;
  residual.name = "bfa/dram-locker-residual";
  residual.gate.kind = ds::GateSpec::Kind::kResidual;
  residual.gate.residual_p = 0.096;  // erroneous-SWAP leak, Sec. IV-D
  residual.gate.seed = derive_seed(seed, kGateSeed);

  ds::BfaCampaign deny = none;
  deny.name = "bfa/deny-all+integrity";
  deny.gate.kind = ds::GateSpec::Kind::kDenyAll;
  deny.integrity = radar();
  deny.integrity.verify_interval = 2;
  return {none, residual, deny};
}

// ---------------------------------------------------------------- serve

ds::ServeCampaign serve_campaign(std::uint64_t seed, Size size) {
  const Mix mix = serve_mix(size);
  ds::ServeCampaign c;
  c.name = "serve/4ch-timed";
  c.env = base_env(seed);
  c.env.fabric.channels = 4;
  c.env.fabric.interleave = dl::dram::InterleavePolicy::kRowRoundRobin;
  c.env.timing_spec.enabled = true;
  c.env.timing_spec.scheduled_refresh = true;
  c.defense = ds::DefenseSpec::dram_locker(locker_config(),
                                           derive_seed(seed, kLockerSeed))
                  .with_integrity(radar());
  // A web-serving filler, a privileged DNN weight reader (DRAM-Locker ISA
  // support: its reads of locked rows run the unlock SWAP) and a
  // double-sided attacker on the protected row.
  dl::traffic::StreamSpec web = dl::traffic::StreamSpec::synthetic(
      /*base_row=*/128, /*rows=*/64, mix.web, /*locality=*/0.4,
      /*write_fraction=*/0.2, derive_seed(seed, kWebSeed));
  web.name = "web";
  dl::traffic::StreamSpec weights = dl::traffic::StreamSpec::weight_reader(
      /*base_row=*/32, /*rows=*/16, mix.weights, /*burst=*/4,
      /*can_unlock=*/true);
  weights.name = "weights";
  dl::traffic::StreamSpec hammer = dl::traffic::StreamSpec::hammer(
      HammerPattern::kDoubleSided, kVictimRow, mix.hammer);
  hammer.name = "hammer";
  c.traffic.tenants = {web, weights, hammer};
  c.protected_rows = {kVictimRow};
  c.traffic.scheduler.batch = 2;
  c.rounds = mix.rounds;
  return c;
}

ds::ServeCampaign chaos_campaign(std::uint64_t seed, Size size) {
  ds::ServeCampaign c = serve_campaign(seed, size);
  c.name = "chaos/4ch-kill";
  c.env.fabric.interleave = dl::dram::InterleavePolicy::kRowBlocked;
  c.env.timing_spec.enabled = false;
  c.env.resilience.spare_rows = 8;
  c.env.resilience.strike_threshold = 2;
  c.traffic.admission.enabled = true;
  c.traffic.admission.retry_budget = 4;

  c.env.faults.seed = derive_seed(seed, kFaultSeed);
  c.env.faults.period_acts = 256;
  c.env.faults.retention_rate = 0.5;
  c.env.faults.transient_rate = 0.25;
  c.env.faults.stuck_cells = 4;
  c.env.faults.lock_evict_rate = 0.25;
  c.env.faults.remap_fault_rate = 0.1;
  c.env.faults.checksum_fault_rate = 0.25;
  c.env.faults.target_base = 32;
  c.env.faults.target_rows = 32;

  // Tenants: the serve mix, the web tenant with an SLO, plus a second weight
  // reader pinned to the channel chaos kills, so failover has a mirrored
  // tenant to move.
  std::vector<dl::traffic::StreamSpec>& tenants = c.traffic.tenants;
  tenants[0].slo_p99 = 1'000'000;   // 1 us p99 target
  tenants[0].deadline = 2'000'000;  // 2 us per-request deadline
  dl::traffic::StreamSpec weights_ch1 = tenants[1];
  weights_ch1.name = "weights-ch1";
  weights_ch1.base_row = c.env.geometry.total_rows() + 32;  // channel 1
  weights_ch1.pin_channel = 1;
  tenants.insert(tenants.begin() + 2, weights_ch1);

  // Storm over the first third, channel 1 down for the middle third.
  const std::uint64_t third = c.rounds / 3;
  c.chaos.storm_start = third > 0 ? third / 2 : 0;
  c.chaos.storm_rounds = third > 0 ? third : 1;
  c.chaos.period_ramp = 0.5;
  c.chaos.min_period_acts = 32;
  c.chaos.stuck_cells_per_round = 2;
  c.chaos.kill_channel = 1;
  c.chaos.kill_at_round = third > 0 ? third : 1;
  c.chaos.restore_at_round = third > 0 ? 2 * third : 2;
  return c;
}

// ---------------------------------------------------------------- hammer

std::vector<ds::HammerCampaign> hammer_grid(std::uint64_t seed, Size size) {
  constexpr std::uint64_t kTrh = 1000;
  ds::MatrixSpec spec;
  spec.name_prefix = "hammer";
  spec.env = base_env(seed);
  spec.attack.victim_row = kVictimRow;
  spec.attack.act_budget = size == Size::kFull ? 400'000 : 100'000;
  spec.protected_rows = {kVictimRow};
  spec.patterns = {HammerPattern::kDoubleSided, HammerPattern::kManySided,
                   HammerPattern::kHalfDouble};
  // Defense seeds are placeholders: expand() derives them from base_seed.
  spec.defenses = {
      ds::DefenseSpec::none(),
      ds::DefenseSpec::counter_per_row(kTrh / 2, 2),
      ds::DefenseSpec::graphene(kTrh / 2, 64, 2),
      ds::DefenseSpec::hydra(kTrh / 2, 64, 2),
      ds::DefenseSpec::row_swap(kTrh, /*lazy_unswap=*/false, /*seed=*/0),
      ds::DefenseSpec::dram_locker(locker_config(), /*seed=*/0),
  };
  spec.base_seed = derive_seed(seed, kMatrixSeed);
  std::vector<ds::HammerCampaign> cells = ds::expand(spec);
  for (auto& cell : cells) cell.cycles = size == Size::kFull ? 5 : 1;
  return cells;
}

}  // namespace perfbench
