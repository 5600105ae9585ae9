// Sequential model container, loss, and dataset types.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace dl::nn {

/// A feed-forward stack of layers (residual blocks are composite layers).
class Model {
 public:
  /// Pre-forward observer: called immediately before layer `index` runs in
  /// forward() or forward_from().  Run-time integrity defenses
  /// (src/integrity) hook here to verify a layer's weights lazily — exactly
  /// when inference is about to consume them.  The hook may rewrite the
  /// layer's parameters (recovery) but must not add/remove layers.
  using ForwardHook = std::function<void(std::size_t index, Layer& layer)>;

  Model() = default;

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  /// Runs every layer on `x`; forward_from(0, x, train).
  Tensor forward(const Tensor& x, bool train = false);

  /// Runs top-level layers [first, layer_count()) on `x`, which must be
  /// layer `first`'s input, and returns the output.  Hooks fire only for
  /// the layers run, i.e. those at or after `first`.  With `inputs` set,
  /// it is resized to layer_count() + 1 and entry i receives layer i's
  /// input for every layer run, and the last entry the output, so
  /// forward_from(l, (*inputs)[l]) later replays the tail from layer l.
  /// A change confined to layers at or after l leaves (*inputs)[l] valid:
  /// the BFA trials rerun only the layers a flipped weight can reach.
  Tensor forward_from(std::size_t first, const Tensor& x, bool train = false,
                      std::vector<Tensor>* inputs = nullptr);

  void backward(const Tensor& grad_loss);

  [[nodiscard]] std::vector<Param*> params();
  void zero_grad();

  [[nodiscard]] std::size_t param_count();

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Installs the single pre-forward hook (empty function clears it).
  void set_forward_hook(ForwardHook hook) { hook_ = std::move(hook); }
  [[nodiscard]] bool has_forward_hook() const {
    return static_cast<bool>(hook_);
  }

  /// Hook suspension (nestable).  An attacker simulating flips offline
  /// evaluates the model without triggering the victim's inference-time
  /// hooks; see HookSuspensionScope.
  void push_hook_suspension() { ++hook_suspended_; }
  void pop_hook_suspension() { --hook_suspended_; }

 private:
  std::vector<LayerPtr> layers_;
  ForwardHook hook_;
  int hook_suspended_ = 0;
};

/// RAII guard that disables the model's forward hook for a scope.  The BFA
/// attacker wraps its own trial evaluations in this: its simulated forward
/// passes are attacker-local, so lazy integrity verification (which models
/// the *victim's* inference path) must not fire — and must not revert a
/// trial flip between the attacker's flip and its undo.
class HookSuspensionScope {
 public:
  explicit HookSuspensionScope(Model& model) : model_(model) {
    model_.push_hook_suspension();
  }
  ~HookSuspensionScope() { model_.pop_hook_suspension(); }
  HookSuspensionScope(const HookSuspensionScope&) = delete;
  HookSuspensionScope& operator=(const HookSuspensionScope&) = delete;

 private:
  Model& model_;
};

/// Softmax cross-entropy over logits [N, classes].
struct LossResult {
  float loss = 0.0f;            ///< mean over the batch
  Tensor grad;                  ///< dL/dlogits
  std::size_t correct = 0;      ///< top-1 hits in the batch
};

[[nodiscard]] LossResult softmax_cross_entropy(
    const Tensor& logits, const std::vector<std::uint16_t>& labels);

/// Classification dataset: images [N,3,H,W] plus labels.
struct Dataset {
  Tensor images;
  std::vector<std::uint16_t> labels;
  std::size_t num_classes = 0;

  [[nodiscard]] std::size_t size() const { return labels.size(); }

  /// Copies the subset at `indices` into a contiguous batch.
  [[nodiscard]] std::pair<Tensor, std::vector<std::uint16_t>> batch(
      const std::vector<std::size_t>& indices) const;
};

/// Top-1 accuracy of `model` on `data`, evaluated in `chunk`-sized batches.
[[nodiscard]] double evaluate_accuracy(Model& model, const Dataset& data,
                                       std::size_t chunk = 64);

}  // namespace dl::nn
