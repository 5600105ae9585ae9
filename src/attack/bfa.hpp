// Bit-Flip Attack: progressive bit search (Rakin et al., ICCV'19).
//
// Each iteration: (1) compute weight gradients on the attacker's sample
// batch, (2) inside every quantized layer rank candidate bits by the
// first-order loss increase  g_i * Δw(bit)  a flip would cause, (3) across
// the most promising layers, *evaluate* the actual post-flip loss with a
// forward pass and commit the strongest flip.  The attacker degrades top-1
// accuracy with remarkably few flips — tens of bits suffice to drive a
// model to random-guess level (Fig. 1(a) / Fig. 8 of the paper).
//
// Per-step suffix evaluation: the gradient forward of step (1) records
// every top-level layer's input (nn::Model::forward_from).  A flip in a
// weight owned by top-level layer L leaves every activation before L
// unchanged, so each trial flip and the post-commit probe rerun only
// layers [L, end) from the recorded input of L — bit for bit the logits a
// full forward would give.  A blocked or stuck step changed no weight, so
// its loss and accuracy are the gradient forward's own.  The recording
// lives only inside the step that made it; every step starts with a fresh
// full forward, so changes made between steps (integrity recovery, a
// caller's restore) are always seen.
//
// A `FlipGate` models the memory substrate: every selected flip is offered
// to the gate, which realizes it (e.g. by RowHammering the weight's DRAM
// row) or blocks it (DRAM-Locker).  Blocked bits are remembered so the
// attacker moves on to its next candidate instead of retrying forever.
// Gate contract: a gate may read and write DRAM but must not touch the
// model's weights — the step commits a landed flip itself, and the
// post-commit probe reuses activations recorded before the gate ran.
// HammerFlipGate (flips DataStore bits only) and ResidualFlipGate (draws
// from its own RNG) both comply.
//
// Committed flips land in the QuantizedModel — the *checksummed view* a
// run-time integrity defense (src/integrity) guards — so reactive
// detection/recovery sees every landed flip.  The attacker's own trial
// evaluations, by contrast, are offline simulations on the attacker's
// copy: they run under nn::HookSuspensionScope so the victim's lazy
// inference-time verification neither fires on them nor reverts a trial
// flip between the attacker's flip and its undo.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "nn/model.hpp"
#include "nn/quant.hpp"

namespace dl::attack {

/// Decides whether a selected bit flip actually lands in memory.
/// Return true when the flip was realized.  The default gate always lands.
/// The gate must not modify the attacked model's weights (see above).
using FlipGate = std::function<bool(const dl::nn::BitAddress&)>;

struct BfaConfig {
  std::size_t max_iterations = 100;
  std::size_t candidates_per_layer = 1;  ///< top-n bits per layer (>= 1)
  std::size_t layers_evaluated = 4;      ///< forward-evaluated layers/iter
  double stop_below_accuracy = 0.0;      ///< stop early when acc drops below
};

struct BfaIteration {
  std::size_t iteration = 0;
  std::optional<dl::nn::BitAddress> flipped;  ///< nullopt if blocked/stuck
  bool blocked = false;
  float loss_after = 0.0f;
  double accuracy_after = 0.0;  ///< on the attacker's sample batch
};

struct BfaResult {
  std::vector<BfaIteration> iterations;
  std::size_t flips_landed = 0;
  std::size_t flips_blocked = 0;
};

class ProgressiveBitSearch {
 public:
  /// `qmodel` must quantize `model`'s own weights: each quantized layer's
  /// Param must belong to one of `model`'s top-level layers.
  ProgressiveBitSearch(dl::nn::Model& model, dl::nn::QuantizedModel& qmodel,
                       BfaConfig config);

  /// Runs the attack against `sample` (images+labels the attacker drew from
  /// the test set).  `gate` realizes or blocks each flip.
  BfaResult run(const dl::nn::Dataset& sample, const FlipGate& gate = {});

  /// One attack step; exposed for fine-grained experiment drivers.
  BfaIteration step(const dl::nn::Dataset& sample, const FlipGate& gate);

 private:
  dl::nn::Model& model_;
  dl::nn::QuantizedModel& qmodel_;
  BfaConfig config_;
  std::size_t iteration_ = 0;
  std::set<std::tuple<std::size_t, std::size_t, unsigned>> attempted_;
  /// owner_[l]: the top-level model layer holding quantized layer l.
  std::vector<std::size_t> owner_;

  struct Candidate {
    dl::nn::BitAddress addr;
    float predicted_gain = 0.0f;
  };

  /// Gradient pass; records every top-level layer's input and the logits
  /// into `inputs` and returns the loss on the sample.
  dl::nn::LossResult compute_gradients(const dl::nn::Dataset& sample,
                                       std::vector<dl::nn::Tensor>& inputs);

  /// Ranks flip candidates from the current gradients.
  std::vector<Candidate> rank_candidates();

  /// Loss change caused by flipping bit `bit` of word `q` (two's
  /// complement), to first order with weight gradient `grad` and `scale`.
  [[nodiscard]] static float flip_gain(std::int8_t q, unsigned bit,
                                       float grad, float scale);

  /// Loss on `sample` after a change to quantized layer `layer`: reruns
  /// the model from that layer's owner on the recorded `inputs`.
  dl::nn::LossResult loss_after_flip(
      std::size_t layer, const std::vector<dl::nn::Tensor>& inputs,
      const dl::nn::Dataset& sample);
};

/// Fig. 1(a) baseline: flips uniformly random bits of the quantized model.
struct RandomAttackResult {
  std::vector<double> accuracy_after;  ///< after each flip
};

/// `after_attempt(i)` is called after attempt i resolves (landed or
/// blocked) and *before* the accuracy evaluation — a run-time integrity
/// defense verifies/recovers there, so the recorded accuracy reflects the
/// victim's post-recovery state.
RandomAttackResult random_bit_attack(
    dl::nn::Model& model, dl::nn::QuantizedModel& qmodel,
    const dl::nn::Dataset& sample, std::size_t flips, dl::Rng& rng,
    const FlipGate& gate = {},
    const std::function<void(std::size_t)>& after_attempt = {});

}  // namespace dl::attack
