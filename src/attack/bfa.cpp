#include "attack/bfa.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace dl::attack {

using dl::nn::BitAddress;
using dl::nn::Dataset;
using dl::nn::LossResult;
using dl::nn::Tensor;

namespace {

/// Index of the top-level layer of `model` whose params() hold `p`, or
/// model.layer_count() when none does.
std::size_t owning_layer(dl::nn::Model& model, const dl::nn::Param* p) {
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    const auto params = model.layer(l).params();
    if (std::find(params.begin(), params.end(), p) != params.end()) return l;
  }
  return model.layer_count();
}

}  // namespace

ProgressiveBitSearch::ProgressiveBitSearch(dl::nn::Model& model,
                                           dl::nn::QuantizedModel& qmodel,
                                           BfaConfig config)
    : model_(model), qmodel_(qmodel), config_(config) {
  DL_REQUIRE(config_.layers_evaluated >= 1, "must evaluate at least 1 layer");
  DL_REQUIRE(config_.candidates_per_layer >= 1,
             "must rank at least 1 candidate per layer");
  owner_.reserve(qmodel_.layer_count());
  for (std::size_t li = 0; li < qmodel_.layer_count(); ++li) {
    const auto& layer = qmodel_.layer(li);
    owner_.push_back(owning_layer(model_, layer.target));
    DL_REQUIRE(owner_.back() < model_.layer_count(),
               "quantized layer " + layer.name +
                   " is not a weight of the attacked model");
  }
}

LossResult ProgressiveBitSearch::compute_gradients(
    const Dataset& sample, std::vector<Tensor>& inputs) {
  model_.zero_grad();
  const Tensor logits =
      model_.forward_from(0, sample.images, /*train=*/false, &inputs);
  LossResult r = dl::nn::softmax_cross_entropy(logits, sample.labels);
  model_.backward(r.grad);
  return r;
}

LossResult ProgressiveBitSearch::loss_after_flip(
    std::size_t layer, const std::vector<Tensor>& inputs,
    const Dataset& sample) {
  const std::size_t first = owner_[layer];
  const Tensor logits =
      model_.forward_from(first, inputs[first], /*train=*/false);
  return dl::nn::softmax_cross_entropy(logits, sample.labels);
}

float ProgressiveBitSearch::flip_gain(std::int8_t q, unsigned bit, float grad,
                                      float scale) {
  // Two's-complement value change of flipping `bit`:
  //   bit < 7 : +2^bit when the bit is 0, -2^bit when it is 1
  //   bit = 7 : -128 when turning the sign bit on, +128 turning it off
  const bool is_one = ((static_cast<std::uint8_t>(q) >> bit) & 1u) != 0;
  float dq = static_cast<float>(1u << bit);
  if (bit == 7) dq = 128.0f;
  if (is_one) dq = -dq;
  if (bit == 7) dq = -dq;
  // First-order loss change: dL = g * dw = g * dq * scale.
  return grad * dq * scale;
}

std::vector<ProgressiveBitSearch::Candidate>
ProgressiveBitSearch::rank_candidates() {
  // Layers are ranked independently, so they fan out across the pool; each
  // produces its own sorted top-k slot and the slots merge in layer order,
  // keeping the candidate list independent of the thread count.  The
  // attempted_ set is only read here (concurrent lookups are safe).
  std::vector<std::vector<Candidate>> per_layer(qmodel_.layer_count());
  dl::parallel::parallel_for(0, qmodel_.layer_count(), 1, [&](
      std::size_t l0, std::size_t l1, std::size_t) {
  for (std::size_t li = l0; li < l1; ++li) {
    const auto& layer = qmodel_.layer(li);
    auto& topk = per_layer[li];  // per-layer top-k, kept sorted descending
    for (std::size_t wi = 0; wi < layer.q.size(); ++wi) {
      const float g = layer.target->grad[wi];
      if (g == 0.0f) continue;
      // Best non-attempted bit of this weight word: checking all 8 keeps
      // the two's-complement arithmetic exact (sign bit included).
      float best_gain = 0.0f;
      unsigned best_bit = 0;
      for (unsigned bit = 0; bit < 8; ++bit) {
        const float gain = flip_gain(layer.q[wi], bit, g, layer.scale);
        if (gain <= best_gain) continue;
        if (attempted_.contains({li, wi, bit})) continue;
        best_gain = gain;
        best_bit = bit;
      }
      if (best_gain <= 0.0f) continue;
      if (topk.size() == config_.candidates_per_layer &&
          best_gain <= topk.back().predicted_gain) {
        continue;
      }
      const Candidate c{{li, wi, best_bit}, best_gain};
      const auto pos = std::upper_bound(
          topk.begin(), topk.end(), c,
          [](const Candidate& a, const Candidate& b) {
            return a.predicted_gain > b.predicted_gain;
          });
      topk.insert(pos, c);
      if (topk.size() > config_.candidates_per_layer) topk.pop_back();
    }
  }
  });
  std::vector<Candidate> best;
  for (const auto& topk : per_layer) {
    best.insert(best.end(), topk.begin(), topk.end());
  }
  std::sort(best.begin(), best.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.predicted_gain > b.predicted_gain;
            });
  return best;
}

BfaIteration ProgressiveBitSearch::step(const Dataset& sample,
                                        const FlipGate& gate) {
  // The whole step is the attacker's offline simulation: gradients, trial
  // flip/evaluate/undo, and the post-commit accuracy probe all run on the
  // attacker's copy, so the victim's inference hooks (lazy integrity
  // verification) stay out of the loop.  Committed flips still mutate the
  // checksummed QuantizedModel, which is what reactive defenses verify.
  dl::nn::HookSuspensionScope suspend(model_);
  BfaIteration it;
  it.iteration = ++iteration_;
  // Recorded by this step's gradient forward and dropped with the step.
  std::vector<Tensor> inputs;
  const LossResult clean = compute_gradients(sample, inputs);
  const auto candidates = rank_candidates();
  const auto finish = [&](const LossResult& r) {
    it.loss_after = r.loss;
    it.accuracy_after =
        static_cast<double>(r.correct) / static_cast<double>(sample.size());
    return it;
  };

  // Cross-layer phase: evaluate the top candidates by real forward loss.
  const std::size_t evals =
      std::min<std::size_t>(config_.layers_evaluated, candidates.size());
  float best_loss = -1e30f;
  std::optional<BitAddress> best_addr;
  for (std::size_t i = 0; i < evals; ++i) {
    const BitAddress addr = candidates[i].addr;
    qmodel_.flip_bit(addr);
    const float loss = loss_after_flip(addr.layer, inputs, sample).loss;
    qmodel_.flip_bit(addr);  // undo
    if (loss > best_loss) {
      best_loss = loss;
      best_addr = addr;
    }
  }

  // No candidate improves the loss (or all attempted): attacker is stuck.
  if (!best_addr) return finish(clean);

  attempted_.insert({best_addr->layer, best_addr->weight, best_addr->bit});
  const bool landed = gate ? gate(*best_addr) : true;
  if (!landed) {
    it.blocked = true;
    return finish(clean);
  }
  qmodel_.flip_bit(*best_addr);
  it.flipped = *best_addr;
  return finish(loss_after_flip(best_addr->layer, inputs, sample));
}

BfaResult ProgressiveBitSearch::run(const Dataset& sample,
                                    const FlipGate& gate) {
  BfaResult res;
  for (std::size_t i = 0; i < config_.max_iterations; ++i) {
    BfaIteration it = step(sample, gate);
    if (it.flipped) {
      ++res.flips_landed;
    } else if (it.blocked) {
      ++res.flips_blocked;
    }
    const double acc = it.accuracy_after;
    const bool stuck = !it.flipped && !it.blocked;
    res.iterations.push_back(std::move(it));
    if (stuck) break;
    if (acc <= config_.stop_below_accuracy) break;
  }
  return res;
}

RandomAttackResult random_bit_attack(
    dl::nn::Model& model, dl::nn::QuantizedModel& qmodel,
    const Dataset& sample, std::size_t flips, dl::Rng& rng,
    const FlipGate& gate,
    const std::function<void(std::size_t)>& after_attempt) {
  RandomAttackResult res;
  for (std::size_t i = 0; i < flips; ++i) {
    BitAddress addr;
    addr.layer = rng.next_below(qmodel.layer_count());
    addr.weight = rng.next_below(qmodel.layer(addr.layer).weights());
    addr.bit = static_cast<unsigned>(rng.next_below(8));
    const bool landed = gate ? gate(addr) : true;
    if (landed) qmodel.flip_bit(addr);
    if (after_attempt) after_attempt(i);
    // The accuracy probe is attacker-side: no victim inference hooks.
    dl::nn::HookSuspensionScope suspend(model);
    const dl::nn::Tensor logits =
        model.forward(sample.images, /*train=*/false);
    const dl::nn::LossResult r =
        dl::nn::softmax_cross_entropy(logits, sample.labels);
    res.accuracy_after.push_back(static_cast<double>(r.correct) /
                                 static_cast<double>(sample.size()));
  }
  return res;
}

}  // namespace dl::attack
