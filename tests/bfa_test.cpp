// Tests for the progressive bit search and random attack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "attack/bfa.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "nn/data.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/train.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace dl::attack;
using namespace dl::nn;

/// Small trained model + data shared by the attack tests.
struct Fixture {
  SynthConfig cfg;
  Dataset train, sample;
  Model model;
  std::unique_ptr<QuantizedModel> qmodel;
  double clean_acc = 0.0;

  Fixture() {
    cfg = synth_cifar10();
    cfg.num_classes = 4;
    train = make_synth_cifar(cfg, 128, 11);
    sample = make_synth_cifar(cfg, 32, 12);
    dl::Rng rng(21);
    model.add(std::make_unique<Conv2d>(3, 8, 3, 2, 1, rng));
    model.add(std::make_unique<BatchNorm2d>(8));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<Conv2d>(8, 8, 3, 2, 1, rng));
    model.add(std::make_unique<BatchNorm2d>(8));
    model.add(std::make_unique<ReLU>());
    model.add(std::make_unique<GlobalAvgPool>());
    model.add(std::make_unique<Linear>(8, 4, rng));
    SgdConfig scfg;
    scfg.epochs = 6;
    scfg.batch_size = 16;
    scfg.lr = 0.08f;
    SgdTrainer trainer(model, scfg, dl::Rng(22));
    trainer.fit(train);
    qmodel = std::make_unique<QuantizedModel>(model);
    clean_acc = evaluate_accuracy(model, sample);
  }
};

Fixture& fixture() {
  static Fixture f;  // train once for the whole suite
  return f;
}

/// ResNet-20 at width 0.25, trained 1 epoch on 64 SynthCIFAR-10 images,
/// with a 16-image attack sample: its 22 quantized layers sit in the stem,
/// in all 9 residual blocks and in the head.  With these seeds the gated
/// search lands its flips in top-level layers 6, 8, 9 and 4, so a search
/// that replays an earlier step's recorded inputs leaves the reference
/// from step 2 on.  At many other seeds every flip lands in one layer and
/// such a bug stays hidden.
struct ResNetFixture {
  Dataset train, sample;
  Model model;
  std::unique_ptr<QuantizedModel> qmodel;

  ResNetFixture() {
    const SynthConfig cfg = synth_cifar10();
    train = make_synth_cifar(cfg, 64, 291);
    sample = make_synth_cifar(cfg, 16, 292);
    dl::Rng rng(293);
    model = make_resnet20(cfg.num_classes, 0.25f, rng);
    SgdConfig scfg;
    scfg.epochs = 1;
    scfg.batch_size = 16;
    scfg.lr = 0.08f;
    SgdTrainer trainer(model, scfg, dl::Rng(294));
    trainer.fit(train);
    qmodel = std::make_unique<QuantizedModel>(model);
  }
};

ResNetFixture& resnet() {
  static ResNetFixture f;
  return f;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Top-level layer of `model` whose params() hold `p`.
std::size_t owner_of(Model& model, const Param* p) {
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    const auto params = model.layer(l).params();
    if (std::find(params.begin(), params.end(), p) != params.end()) return l;
  }
  return model.layer_count();
}

/// The progressive bit search as it ran before suffix evaluation, from
/// public calls only: a gradient pass, the per-layer top-k ranking, and a
/// full forward for every trial flip and for the probe after the gate.
/// ProgressiveBitSearch must reproduce it bit for bit.
class ReferenceSearch {
 public:
  ReferenceSearch(Model& model, QuantizedModel& qmodel, BfaConfig config)
      : model_(model), qmodel_(qmodel), config_(config) {}

  BfaIteration step(const Dataset& sample, const FlipGate& gate) {
    HookSuspensionScope suspend(model_);
    BfaIteration it;
    it.iteration = ++iteration_;
    model_.zero_grad();
    const Tensor logits = model_.forward(sample.images);
    model_.backward(softmax_cross_entropy(logits, sample.labels).grad);

    const std::vector<Candidate> candidates = rank();
    const std::size_t evals =
        std::min(config_.layers_evaluated, candidates.size());
    float best_loss = -1e30f;
    std::optional<BitAddress> best;
    for (std::size_t i = 0; i < evals; ++i) {
      qmodel_.flip_bit(candidates[i].addr);
      const float loss = full_forward(sample).loss;
      qmodel_.flip_bit(candidates[i].addr);
      if (loss > best_loss) {
        best_loss = loss;
        best = candidates[i].addr;
      }
    }
    if (best) {
      attempted_.insert({best->layer, best->weight, best->bit});
      if (!gate || gate(*best)) {
        qmodel_.flip_bit(*best);
        it.flipped = *best;
      } else {
        it.blocked = true;
      }
    }
    const LossResult r = full_forward(sample);
    it.loss_after = r.loss;
    it.accuracy_after =
        static_cast<double>(r.correct) / static_cast<double>(sample.size());
    return it;
  }

 private:
  struct Candidate {
    BitAddress addr;
    float gain = 0.0f;
  };

  static bool by_gain(const Candidate& a, const Candidate& b) {
    return a.gain > b.gain;
  }

  LossResult full_forward(const Dataset& sample) {
    return softmax_cross_entropy(model_.forward(sample.images),
                                 sample.labels);
  }

  /// Each weight word offers its best non-attempted bit of all 8, scored
  /// by the first-order loss change grad * (flipped word - word) * scale;
  /// each layer keeps its top candidates_per_layer, earlier words first
  /// on ties, and the layers' picks are sorted by gain.
  std::vector<Candidate> rank() const {
    std::vector<Candidate> picks;
    for (std::size_t li = 0; li < qmodel_.layer_count(); ++li) {
      const QuantizedLayer& layer = qmodel_.layer(li);
      std::vector<Candidate> words;
      for (std::size_t wi = 0; wi < layer.weights(); ++wi) {
        Candidate best{{li, wi, 0}, 0.0f};
        for (unsigned bit = 0; bit < 8; ++bit) {
          const auto flipped = static_cast<std::int8_t>(
              static_cast<std::uint8_t>(layer.q[wi]) ^ (1u << bit));
          const auto dq =
              static_cast<float>(static_cast<int>(flipped) - layer.q[wi]);
          const float gain = layer.target->grad[wi] * dq * layer.scale;
          if (gain > best.gain && !attempted_.contains({li, wi, bit})) {
            best = {{li, wi, bit}, gain};
          }
        }
        if (best.gain > 0.0f) words.push_back(best);
      }
      std::stable_sort(words.begin(), words.end(), by_gain);
      words.resize(std::min(words.size(), config_.candidates_per_layer));
      picks.insert(picks.end(), words.begin(), words.end());
    }
    std::sort(picks.begin(), picks.end(), by_gain);
    return picks;
  }

  Model& model_;
  QuantizedModel& qmodel_;
  BfaConfig config_;
  std::size_t iteration_ = 0;
  std::set<std::tuple<std::size_t, std::size_t, unsigned>> attempted_;
};

/// Eight steps from the restored model, offering each chosen flip to a
/// gate that denies every third offer.
template <class Search>
std::vector<BfaIteration> eight_gated_steps(ResNetFixture& f) {
  f.qmodel->restore();
  BfaConfig cfg;
  cfg.layers_evaluated = 3;
  Search search(f.model, *f.qmodel, cfg);
  std::size_t offers = 0;
  const FlipGate gate = [&offers](const BitAddress&) {
    return ++offers % 3 != 0;
  };
  std::vector<BfaIteration> steps;
  for (int i = 0; i < 8; ++i) steps.push_back(search.step(f.sample, gate));
  f.qmodel->restore();
  return steps;
}

TEST(BfaOracle, StepMatchesFullForwardReference) {
  ResNetFixture& f = resnet();
  for (const std::size_t threads : {1u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    dl::parallel::set_threads(threads);
    const auto got = eight_gated_steps<ProgressiveBitSearch>(f);
    const auto want = eight_gated_steps<ReferenceSearch>(f);
    ASSERT_EQ(got.size(), want.size());
    std::size_t landed = 0, blocked = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "step " << i + 1);
      EXPECT_EQ(got[i].flipped, want[i].flipped);
      EXPECT_EQ(got[i].blocked, want[i].blocked);
      EXPECT_EQ(std::memcmp(&got[i].loss_after, &want[i].loss_after,
                            sizeof(float)),
                0)
          << got[i].loss_after << " vs " << want[i].loss_after;
      EXPECT_EQ(got[i].accuracy_after, want[i].accuracy_after);
      landed += got[i].flipped.has_value();
      blocked += got[i].blocked;
    }
    EXPECT_GE(landed, 1u);
    EXPECT_GE(blocked, 1u);
  }
  dl::parallel::set_threads(0);
}

TEST(BfaOracle, SuffixForwardMatchesFullForwardForEveryQuantizedLayer) {
  ResNetFixture& f = resnet();
  f.qmodel->restore();
  std::vector<Tensor> inputs;
  const Tensor clean =
      f.model.forward_from(0, f.sample.images, /*train=*/false, &inputs);
  ASSERT_EQ(inputs.size(), f.model.layer_count() + 1);
  // Stem conv, two convs in each of the 9 blocks, 2 projections, linear.
  ASSERT_EQ(f.qmodel->layer_count(), 22u);
  for (std::size_t li = 0; li < f.qmodel->layer_count(); ++li) {
    const QuantizedLayer& layer = f.qmodel->layer(li);
    SCOPED_TRACE(layer.name + " (layer " + std::to_string(li) + ")");
    const std::size_t owner = owner_of(f.model, layer.target);
    ASSERT_LT(owner, f.model.layer_count());
    const BitAddress addr{li, layer.weights() / 2, 6};
    f.qmodel->flip_bit(addr);
    const Tensor full = f.model.forward(f.sample.images);
    const Tensor suffix = f.model.forward_from(owner, inputs[owner]);
    f.qmodel->flip_bit(addr);  // undo
    EXPECT_TRUE(same_bytes(suffix, full));
    EXPECT_FALSE(same_bytes(full, clean));
  }
  EXPECT_TRUE(same_bytes(f.model.forward(f.sample.images), clean));
}

TEST(Bfa, FixtureTrainsAboveChance) {
  EXPECT_GT(fixture().clean_acc, 0.6);
}

TEST(Bfa, ProgressiveSearchDegradesAccuracy) {
  Fixture& f = fixture();
  f.qmodel->restore();
  BfaConfig cfg;
  cfg.max_iterations = 15;
  cfg.layers_evaluated = 3;
  ProgressiveBitSearch pbs(f.model, *f.qmodel, cfg);
  const BfaResult res = pbs.run(f.sample);
  EXPECT_GT(res.flips_landed, 0u);
  ASSERT_FALSE(res.iterations.empty());
  const double final_acc = res.iterations.back().accuracy_after;
  EXPECT_LT(final_acc, f.clean_acc - 0.2);
  f.qmodel->restore();
}

TEST(Bfa, LossIsNonDecreasingUnderAttack) {
  Fixture& f = fixture();
  f.qmodel->restore();
  BfaConfig cfg;
  cfg.max_iterations = 5;
  ProgressiveBitSearch pbs(f.model, *f.qmodel, cfg);
  float prev_loss = -1e9f;
  int non_increases = 0;
  for (int i = 0; i < 5; ++i) {
    const auto it = pbs.step(f.sample, {});
    if (it.loss_after < prev_loss) ++non_increases;
    prev_loss = it.loss_after;
  }
  // The greedy search occasionally plateaus but must trend upward.
  EXPECT_LE(non_increases, 1);
  f.qmodel->restore();
}

TEST(Bfa, BlockedGateStopsDegradation) {
  Fixture& f = fixture();
  f.qmodel->restore();
  BfaConfig cfg;
  cfg.max_iterations = 8;
  ProgressiveBitSearch pbs(f.model, *f.qmodel, cfg);
  const BfaResult res =
      pbs.run(f.sample, [](const BitAddress&) { return false; });
  EXPECT_EQ(res.flips_landed, 0u);
  EXPECT_EQ(res.flips_blocked, res.iterations.size());
  const double final_acc = res.iterations.back().accuracy_after;
  EXPECT_NEAR(final_acc, f.clean_acc, 0.08);
  f.qmodel->restore();
}

TEST(Bfa, BlockedBitsAreNotRetried) {
  Fixture& f = fixture();
  f.qmodel->restore();
  BfaConfig cfg;
  cfg.max_iterations = 4;
  ProgressiveBitSearch pbs(f.model, *f.qmodel, cfg);
  std::set<std::tuple<std::size_t, std::size_t, unsigned>> offered;
  pbs.run(f.sample, [&](const BitAddress& a) {
    const auto key = std::make_tuple(a.layer, a.weight, a.bit);
    EXPECT_FALSE(offered.contains(key)) << "bit offered twice";
    offered.insert(key);
    return false;
  });
  f.qmodel->restore();
}

TEST(Bfa, StopBelowAccuracyShortCircuits) {
  Fixture& f = fixture();
  f.qmodel->restore();
  BfaConfig cfg;
  cfg.max_iterations = 50;
  cfg.stop_below_accuracy = 0.99;  // any accuracy triggers the stop
  ProgressiveBitSearch pbs(f.model, *f.qmodel, cfg);
  const BfaResult res = pbs.run(f.sample);
  EXPECT_EQ(res.iterations.size(), 1u);
  f.qmodel->restore();
}

TEST(Bfa, RejectsZeroCandidatesPerLayer) {
  // With no candidate slot, ranking would read the back of an empty top-k.
  Fixture& f = fixture();
  BfaConfig cfg;
  cfg.candidates_per_layer = 0;
  EXPECT_THROW(ProgressiveBitSearch(f.model, *f.qmodel, cfg), dl::Error);

  dl::scenario::BfaCampaign campaign;
  campaign.name = "bfa/zero-candidates";
  campaign.bfa = cfg;
  const dl::scenario::VictimRef victim{f.model, *f.qmodel, f.sample,
                                       f.clean_acc};
  const auto r = dl::scenario::run_bfa_isolated(victim, campaign);
  EXPECT_EQ(r.status, dl::scenario::CampaignStatus::kFailed);
  EXPECT_NE(r.error.find("must rank at least 1 candidate per layer"),
            std::string::npos)
      << r.error;
}

TEST(Bfa, RejectsWeightsOfAnotherModel) {
  // Trial forwards start at the top-level layer owning the flipped weight,
  // so every quantized layer must belong to the attacked model.
  Fixture& f = fixture();
  dl::Rng rng(33);
  Model other;
  other.add(std::make_unique<Linear>(2, 2, rng));
  QuantizedModel q(other);
  EXPECT_THROW(ProgressiveBitSearch(f.model, q, BfaConfig{}), dl::Error);
}

TEST(Bfa, TwosComplementFlipArithmetic) {
  // The candidate ranking relies on exact two's-complement flip deltas;
  // verify them through QuantizedModel::flip_bit on a single-weight model.
  dl::Rng rng(31);
  Model m;
  m.add(std::make_unique<Linear>(1, 1, rng));
  QuantizedModel q(m);
  q.set_weight_word(0, 0, 0);
  q.flip_bit({0, 0, 6});
  EXPECT_EQ(q.weight_word(0, 0), 64);    // +2^6
  q.flip_bit({0, 0, 7});
  EXPECT_EQ(q.weight_word(0, 0), -64);   // sign bit on: 64 - 128
  q.flip_bit({0, 0, 6});
  EXPECT_EQ(q.weight_word(0, 0), -128);  // -64 - 64
}

TEST(RandomAttack, ManyFlipsBarelyMoveAccuracy) {
  Fixture& f = fixture();
  f.qmodel->restore();
  dl::Rng rng(41);
  const RandomAttackResult res =
      random_bit_attack(f.model, *f.qmodel, f.sample, 20, rng);
  ASSERT_EQ(res.accuracy_after.size(), 20u);
  // Fig. 1(a): random flips are far less damaging than targeted ones.
  // With ~5k weights, 20 random bit flips rarely hit anything critical.
  EXPECT_GT(res.accuracy_after.back(), f.clean_acc - 0.35);
  f.qmodel->restore();
}

TEST(RandomAttack, GateBlocksFlips) {
  Fixture& f = fixture();
  f.qmodel->restore();
  const auto image = f.qmodel->serialize();
  dl::Rng rng(43);
  random_bit_attack(f.model, *f.qmodel, f.sample, 10, rng,
                    [](const BitAddress&) { return false; });
  EXPECT_EQ(f.qmodel->serialize(), image);
  f.qmodel->restore();
}

}  // namespace
