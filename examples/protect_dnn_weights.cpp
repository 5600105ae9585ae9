// End-to-end DNN weight protection — the paper's headline scenario.
//
// Trains a small quantized CNN on synthetic data, maps its int8 weights
// into simulated DRAM through the OS layer, mounts a progressive bit-flip
// attack realized by RowHammer, and compares the outcome with and without
// DRAM-Locker guarding the weight rows.
//
//   $ ./protect_dnn_weights
#include <cstdio>
#include <memory>

#include "attack/bfa.hpp"
#include "attack/hammer_gate.hpp"
#include "attack/weight_binding.hpp"
#include "core/system.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "nn/train.hpp"

namespace {

dl::core::SystemConfig system_config() {
  dl::core::SystemConfig cfg;
  cfg.geometry.banks = 2;
  cfg.geometry.subarrays_per_bank = 8;
  cfg.geometry.rows_per_subarray = 128;
  cfg.disturbance.t_rh = 1000;
  return cfg;
}

double attack_once(bool with_locker, dl::nn::Model& model,
                   dl::nn::QuantizedModel& qmodel,
                   const dl::nn::Dataset& sample) {
  dl::core::Fabric sys(system_config());
  auto space = sys.make_address_space();
  auto binding = sys.make_weight_binding(*space, qmodel, 0x100000);
  binding.upload();

  if (with_locker) {
    dl::defense::DramLockerConfig lcfg;
    lcfg.protect_radius = 2;
    lcfg.relock_policy = dl::defense::RelockPolicy::kSwapBack;
    auto& locker = sys.enable_locker(lcfg);
    const std::size_t locked = binding.protect_all(locker);
    std::printf("  [defense] %zu rows locked around the weight image\n",
                locked);
  }

  auto gate = sys.make_hammer_gate(binding, /*act_budget=*/8000);
  dl::attack::BfaConfig bcfg;
  bcfg.max_iterations = 10;
  bcfg.layers_evaluated = 2;
  dl::attack::ProgressiveBitSearch pbs(model, qmodel, bcfg);
  const auto res = pbs.run(
      sample, [&](const dl::nn::BitAddress& a) { return gate(a); });

  binding.sync_from_dram();  // whatever is in DRAM is what inference uses
  const double acc = dl::nn::evaluate_accuracy(model, sample);
  std::printf("  [attack] %zu flips landed, %zu blocked "
              "(%llu ACTs granted, %llu denied)\n",
              res.flips_landed, res.flips_blocked,
              static_cast<unsigned long long>(gate.total_acts()),
              static_cast<unsigned long long>(gate.total_denied()));
  return acc;
}

}  // namespace

int main() {
  using namespace dl;

  // Train a small victim (SynthCIFAR-4; see DESIGN.md for the dataset
  // substitution) and quantize it to int8.
  nn::SynthConfig synth = nn::synth_cifar10();
  synth.num_classes = 4;
  synth.noise_sigma = 0.35f;  // easy 4-class demo problem
  const nn::Dataset train = nn::make_synth_cifar(synth, 192, 1);
  const nn::Dataset sample = nn::make_synth_cifar(synth, 48, 2);

  Rng rng(3);
  nn::Model model;
  model.add(std::make_unique<nn::Conv2d>(3, 8, 3, 2, 1, rng));
  model.add(std::make_unique<nn::BatchNorm2d>(8));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::GlobalAvgPool>());
  model.add(std::make_unique<nn::Linear>(8, 4, rng));

  nn::SgdConfig scfg;
  scfg.epochs = 6;
  scfg.batch_size = 16;
  nn::SgdTrainer trainer(model, scfg, Rng(4));
  trainer.fit(train);
  nn::QuantizedModel qmodel(model);
  const double clean = nn::evaluate_accuracy(model, sample);
  std::printf("clean int8 accuracy: %.1f%%  (%zu weights in DRAM)\n\n",
              clean * 100, qmodel.total_weights());

  std::printf("--- BFA without defense ---\n");
  const double undefended = attack_once(false, model, qmodel, sample);
  std::printf("  accuracy after attack: %.1f%%\n\n", undefended * 100);

  qmodel.restore();
  std::printf("--- BFA with DRAM-Locker ---\n");
  const double defended = attack_once(true, model, qmodel, sample);
  std::printf("  accuracy after attack: %.1f%%\n\n", defended * 100);

  std::printf("summary: clean %.1f%% | undefended %.1f%% | "
              "DRAM-Locker %.1f%%\n",
              clean * 100, undefended * 100, defended * 100);
  return 0;
}
