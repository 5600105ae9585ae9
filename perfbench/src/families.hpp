// Campaign specs and the BFA victim the benchmark workloads run.
//
// Every seed (tenants, matrix, victim, gate, defense, faults) is derived
// from the workload seed given on the command line.  Each family comes in
// two sizes: kFull is what a workload times, kProbe is a small version the
// traced run uses to measure a layer the workload itself does not load,
// and the determinism self-check uses to compare thread counts quickly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/data.hpp"
#include "nn/model.hpp"
#include "nn/quant.hpp"
#include "nn/train.hpp"
#include "scenario/scenario.hpp"

namespace perfbench {

enum class Size { kFull, kProbe };

/// Independent seed for purpose `what` under the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t what);

// ---------------------------------------------------------------- bfa

struct VictimConfig {
  float width_mult = 0.25f;
  std::size_t train_samples = 768;
  std::size_t test_samples = 128;
  std::size_t sample_samples = 32;  ///< the attacker's batch
  std::size_t epochs = 4;
  std::uint64_t seed = 7;
};

/// A trained, int8-quantized ResNet-20 on SynthCIFAR-10.
struct Victim {
  dl::nn::Model model;
  std::unique_ptr<dl::nn::QuantizedModel> qmodel;
  dl::nn::Dataset train;
  dl::nn::Dataset test;
  dl::nn::Dataset sample;
  double clean_accuracy = 0.0;
};

[[nodiscard]] VictimConfig victim_config(std::uint64_t seed, Size size);

/// Builds the datasets and an untrained model (no SGD yet).
[[nodiscard]] Victim make_victim(const VictimConfig& config);

/// SGD settings the victim trains with.
[[nodiscard]] dl::nn::SgdConfig victim_sgd(const VictimConfig& config);

/// Quantizes the trained model and measures clean int8 test accuracy.
void quantize_victim(Victim& victim);

/// Undefended, DRAM-Locker residual gate (p = 0.096) and deny-all plus
/// integrity, in that order, each a fixed-iteration progressive BFA.
[[nodiscard]] std::vector<dl::scenario::BfaCampaign> bfa_campaigns(
    std::uint64_t seed, Size size);

// ---------------------------------------------------------------- serve

/// 4-channel round-robin fabric, timing engine and scheduled REF on,
/// DRAM-Locker plus the RADAR-style scrubber, web/weights/hammer tenants.
[[nodiscard]] dl::scenario::ServeCampaign serve_campaign(std::uint64_t seed,
                                                         Size size);

/// The same tenant mix on a row-blocked, untimed fabric with admission
/// control, a fault storm, a channel kill and restore, and row retirement.
[[nodiscard]] dl::scenario::ServeCampaign chaos_campaign(std::uint64_t seed,
                                                         Size size);

// ---------------------------------------------------------------- hammer

/// {double, many, half-double} x {none, counter-per-row, graphene, hydra,
/// row-swap, DRAM-Locker}, no tenants.
[[nodiscard]] std::vector<dl::scenario::HammerCampaign> hammer_grid(
    std::uint64_t seed, Size size);

}  // namespace perfbench
