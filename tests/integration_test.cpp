// End-to-end integration tests: DNN weights in simulated DRAM, attacks
// realized through RowHammer, with and without DRAM-Locker.
#include <gtest/gtest.h>

#include <memory>

#include "attack/bfa.hpp"
#include "attack/hammer_gate.hpp"
#include "attack/pta.hpp"
#include "attack/weight_binding.hpp"
#include "core/system.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "nn/train.hpp"

namespace {

using namespace dl;

core::SystemConfig small_system(std::uint64_t t_rh = 1000) {
  core::SystemConfig cfg;
  cfg.geometry.banks = 2;
  cfg.geometry.subarrays_per_bank = 8;
  cfg.geometry.rows_per_subarray = 128;
  cfg.geometry.row_bytes = 8192;
  cfg.disturbance.t_rh = t_rh;
  cfg.disturbance.deterministic_bits = false;
  return cfg;
}

/// Small trained quantized model shared across integration tests.
struct TrainedModel {
  nn::Dataset sample;
  nn::Model model;
  std::unique_ptr<nn::QuantizedModel> qmodel;
  double clean_acc = 0.0;

  TrainedModel() {
    nn::SynthConfig cfg = nn::synth_cifar10();
    cfg.num_classes = 4;
    const nn::Dataset train = nn::make_synth_cifar(cfg, 128, 51);
    sample = nn::make_synth_cifar(cfg, 32, 52);
    dl::Rng rng(53);
    model.add(std::make_unique<nn::Conv2d>(3, 8, 3, 2, 1, rng));
    model.add(std::make_unique<nn::BatchNorm2d>(8));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::GlobalAvgPool>());
    model.add(std::make_unique<nn::Linear>(8, 4, rng));
    nn::SgdConfig scfg;
    scfg.epochs = 6;
    scfg.batch_size = 16;
    scfg.lr = 0.08f;
    nn::SgdTrainer trainer(model, scfg, dl::Rng(54));
    trainer.fit(train);
    qmodel = std::make_unique<nn::QuantizedModel>(model);
    clean_acc = nn::evaluate_accuracy(model, sample);
  }
};

TrainedModel& trained() {
  static TrainedModel t;
  return t;
}

TEST(Integration, WeightsSurviveDramRoundTrip) {
  TrainedModel& t = trained();
  t.qmodel->restore();
  core::Fabric sys(small_system());
  auto space = sys.make_address_space();
  auto binding = sys.make_weight_binding(*space, *t.qmodel, 0x100000);
  binding.upload();
  const auto image_before = t.qmodel->serialize();
  ASSERT_TRUE(binding.sync_from_dram());
  EXPECT_EQ(t.qmodel->serialize(), image_before);
  EXPECT_NEAR(nn::evaluate_accuracy(t.model, t.sample), t.clean_acc, 1e-9);
}

TEST(Integration, WeightRowsAreTracked) {
  TrainedModel& t = trained();
  t.qmodel->restore();
  core::Fabric sys(small_system());
  auto space = sys.make_address_space();
  auto binding = sys.make_weight_binding(*space, *t.qmodel, 0x100000);
  binding.upload();
  const auto rows = binding.weight_rows();
  EXPECT_FALSE(rows.empty());
  // ~1k weights fit in one or two 8 KiB rows.
  EXPECT_LE(rows.size(), 3u);
  // First weight's row must be among them.
  const auto r0 = binding.row_of_weight(0, 0);
  EXPECT_NE(std::find(rows.begin(), rows.end(), r0), rows.end());
}

TEST(Integration, HammerGateRealizesFlipsWithoutDefense) {
  TrainedModel& t = trained();
  t.qmodel->restore();
  core::Fabric sys(small_system());
  auto space = sys.make_address_space();
  auto binding = sys.make_weight_binding(*space, *t.qmodel, 0x100000);
  binding.upload();

  auto gate = sys.make_hammer_gate(binding, /*act_budget=*/10000);
  attack::BfaConfig cfg;
  cfg.max_iterations = 6;
  cfg.layers_evaluated = 2;
  attack::ProgressiveBitSearch pbs(t.model, *t.qmodel, cfg);
  // The model state must track DRAM: sync before measuring.
  const attack::BfaResult res = pbs.run(
      t.sample, [&](const nn::BitAddress& a) { return gate(a); });
  EXPECT_GT(res.flips_landed, 0u);
  EXPECT_GT(gate.total_acts(), 0u);
  EXPECT_EQ(gate.total_denied(), 0u);

  ASSERT_TRUE(binding.sync_from_dram());
  const double post_acc = nn::evaluate_accuracy(t.model, t.sample);
  EXPECT_LT(post_acc, t.clean_acc);
  t.qmodel->restore();
}

TEST(Integration, DramLockerBlocksHammeredFlips) {
  TrainedModel& t = trained();
  t.qmodel->restore();
  core::Fabric sys(small_system());
  auto space = sys.make_address_space();
  auto binding = sys.make_weight_binding(*space, *t.qmodel, 0x100000);
  binding.upload();

  defense::DramLockerConfig lcfg;
  lcfg.protect_radius = 2;
  lcfg.reserved_rows_per_subarray = 8;
  // Page-table rows share the weight rows' neighbourhood in this tight
  // layout and get locked too; kSwapBack keeps the original aggressor-
  // adjacent rows locked across the page walker's unlock/relock cycles
  // (see RelockNewLocationReopensSurface below for the alternative).
  lcfg.relock_policy = defense::RelockPolicy::kSwapBack;
  auto& locker = sys.enable_locker(lcfg);
  EXPECT_GT(binding.protect_all(locker), 0u);

  auto gate = sys.make_hammer_gate(binding, /*act_budget=*/5000);
  attack::BfaConfig cfg;
  cfg.max_iterations = 5;
  cfg.layers_evaluated = 2;
  attack::ProgressiveBitSearch pbs(t.model, *t.qmodel, cfg);
  const attack::BfaResult res = pbs.run(
      t.sample, [&](const nn::BitAddress& a) { return gate(a); });
  EXPECT_EQ(res.flips_landed, 0u);
  EXPECT_GT(gate.total_denied(), 0u);
  EXPECT_EQ(locker.stats().denied, gate.total_denied());

  ASSERT_TRUE(binding.sync_from_dram());
  EXPECT_NEAR(nn::evaluate_accuracy(t.model, t.sample), t.clean_acc, 1e-9);
  t.qmodel->restore();
}

TEST(Integration, VictimStillReadsWeightsUnderProtection) {
  TrainedModel& t = trained();
  t.qmodel->restore();
  core::Fabric sys(small_system());
  auto space = sys.make_address_space();
  auto binding = sys.make_weight_binding(*space, *t.qmodel, 0x100000);
  binding.upload();
  auto& locker = sys.enable_locker();
  binding.protect_all(locker);
  // Inference path: weights stream from DRAM with no denials (the weight
  // rows themselves are never locked).
  ASSERT_TRUE(binding.sync_from_dram());
  EXPECT_NEAR(nn::evaluate_accuracy(t.model, t.sample), t.clean_acc, 1e-9);
}

TEST(Integration, RelockNewLocationReopensSurface) {
  // Reproduction finding: under the paper's Fig. 4(d) re-lock policy the
  // lock *follows the data*, and after one full unlock/relock/unlock cycle
  // the free-pool rotation puts the data back at its original physical row
  // while the (stale) lock still points at the pool row.  At that moment
  // the original aggressor-adjacent row is unlocked and hammerable again.
  // The kSwapBack policy does not exhibit this window.  The window only
  // lasts until the next relock tick, so an ultra-low threshold part
  // (T_RH = 20) makes the exposure observable deterministically.
  core::SystemConfig scfg = small_system(/*t_rh=*/20);
  core::Fabric sys(scfg);

  defense::DramLockerConfig lcfg;
  lcfg.protect_radius = 1;
  lcfg.relock_rw_interval = 50;
  lcfg.relock_policy = defense::RelockPolicy::kRelockNewLocation;
  auto& locker = sys.enable_locker(lcfg);
  locker.protect_data_row(10);  // locks rows 9 and 11

  std::array<std::uint8_t, 1> buf{};
  // Legitimate unlock of row 9, then enough traffic to trigger the relock.
  ASSERT_TRUE(sys.read(sys.row_base(9), buf, true).granted);
  for (int i = 0; i < 60; ++i) sys.read(sys.row_base(40), buf);
  ASSERT_EQ(locker.stats().relocks, 1u);
  // Second unlock: pool rotation swaps the data back to physical row 9,
  // which is now unlocked (the lock stayed at the pool row).
  ASSERT_TRUE(sys.read(sys.row_base(9), buf, true).granted);
  EXPECT_EQ(sys.channel().indirection().to_physical(9), 9u);
  EXPECT_FALSE(locker.lock_table().is_locked(9));

  // The attacker's original aggressor addresses work again: row 11 is
  // still locked, but the double-sided pattern's row-9 activations land —
  // within the window before the next relock tick re-locks the row.
  const auto res = sys.hammer_attack(
      10, rowhammer::HammerPattern::kDoubleSided, /*act_budget=*/48,
      /*stop_after_flips=*/1);
  EXPECT_GT(res.granted_acts, 0u);
  EXPECT_GT(res.flips_in_victim, 0u);
}

TEST(Integration, PtaRedirectsWithoutDefense) {
  core::Fabric sys(small_system(500));
  auto victim_space = sys.make_address_space();
  auto attacker_space = sys.make_address_space();

  // The victim owns a frame with known content.
  victim_space->map_contiguous(0x200000, 1);
  const auto victim_pte = victim_space->walk(0x200000);
  ASSERT_TRUE(victim_pte.has_value());
  const std::array<std::uint8_t, 4> secret{0xDE, 0xAD, 0xBE, 0xEF};
  victim_space->write(0x200000, secret);

  attack::PtaConfig pcfg;
  pcfg.act_budget = 100000;
  auto pta = sys.make_page_table_attack(pcfg);
  const std::array<std::uint8_t, 4> payload{1, 2, 3, 4};
  const auto res = pta.run(*attacker_space, victim_pte->pfn, payload);
  EXPECT_TRUE(res.redirected);
  EXPECT_TRUE(res.payload_written);
  // Victim data was overwritten through the attacker's mapping.
  std::array<std::uint8_t, 4> readback{};
  victim_space->read(0x200000, readback);
  EXPECT_EQ(readback, payload);
}

TEST(Integration, DramLockerBlocksPta) {
  core::Fabric sys(small_system(500));
  auto victim_space = sys.make_address_space();
  auto attacker_space = sys.make_address_space();
  victim_space->map_contiguous(0x200000, 1);
  const auto victim_pte = victim_space->walk(0x200000);
  const std::array<std::uint8_t, 4> secret{0xDE, 0xAD, 0xBE, 0xEF};
  victim_space->write(0x200000, secret);

  attack::PtaConfig pcfg;
  pcfg.act_budget = 50000;
  auto pta = sys.make_page_table_attack(pcfg);
  // Defender: prepare() exposes where the attacker's PTE lives; the kernel
  // protects page-table rows wholesale (here: that row).
  ASSERT_TRUE(pta.prepare(*attacker_space, victim_pte->pfn));
  auto& locker = sys.enable_locker();
  locker.protect_data_row(*pta.pte_row());

  const std::array<std::uint8_t, 4> payload{1, 2, 3, 4};
  const auto res = pta.run(*attacker_space, victim_pte->pfn, payload);
  EXPECT_FALSE(res.redirected);
  EXPECT_EQ(res.pte_flips, 0u);
  EXPECT_GT(res.acts_denied, 0u);
  std::array<std::uint8_t, 4> readback{};
  victim_space->read(0x200000, readback);
  EXPECT_EQ(readback, secret);
}

TEST(Integration, ResidualGateMatchesConfiguredRate) {
  attack::ResidualFlipGate gate(0.096, dl::Rng(99));
  nn::BitAddress addr;
  for (int i = 0; i < 20000; ++i) gate(addr);
  const double rate =
      static_cast<double>(gate.landed()) / static_cast<double>(gate.attempts());
  EXPECT_NEAR(rate, 0.096, 0.01);
}

TEST(Integration, SystemProtectVirtualRange) {
  core::Fabric sys(small_system());
  auto space = sys.make_address_space();
  space->map_contiguous(0x300000, 4);
  sys.enable_locker();
  const std::size_t locked =
      sys.protect_physical_range(0, 1);  // protect row 0's neighbourhood
  EXPECT_GT(locked, 0u);
  const std::size_t vlocked =
      sys.protect_virtual_range(*space, 0x300000, 4 * sys::kPageBytes);
  EXPECT_GT(vlocked, 0u);
}

TEST(Integration, ShadowSystemWiring) {
  core::Fabric sys(small_system(200));
  auto& shadow = sys.enable_shadow({.threshold = 200, .table_entries = 100});
  for (int i = 0; i < 150; ++i) {
    sys.hammer(sys.row_base(20));
  }
  EXPECT_GE(shadow.shuffles(), 1u);
}

}  // namespace
