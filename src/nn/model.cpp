#include "nn/model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dl::nn {

Tensor Model::forward(const Tensor& x, bool train) {
  return forward_from(0, x, train);
}

Tensor Model::forward_from(std::size_t first, const Tensor& x, bool train,
                           std::vector<Tensor>* inputs) {
  DL_REQUIRE(first <= layers_.size(), "first layer out of range");
  if (inputs != nullptr) inputs->resize(layers_.size() + 1);
  Tensor cur = x;
  for (std::size_t i = first; i < layers_.size(); ++i) {
    if (hook_ && hook_suspended_ == 0) hook_(i, *layers_[i]);
    if (inputs != nullptr) {
      // Record by move: the layer reads its input from the record.
      (*inputs)[i] = std::move(cur);
      cur = layers_[i]->forward((*inputs)[i], train);
    } else {
      cur = layers_[i]->forward(cur, train);
    }
  }
  if (inputs != nullptr) inputs->back() = cur;
  return cur;
}

void Model::backward(const Tensor& grad_loss) {
  Tensor cur = grad_loss;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
}

std::vector<Param*> Model::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    const auto p = layer->params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

void Model::zero_grad() {
  for (Param* p : params()) p->grad.zero();
}

std::size_t Model::param_count() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::uint16_t>& labels) {
  DL_REQUIRE(logits.rank() == 2 && logits.dim(0) == labels.size(),
             "logits/labels mismatch");
  const std::size_t batch = logits.dim(0);
  const std::size_t classes = logits.dim(1);
  LossResult res;
  res.grad = Tensor(logits.shape());
  double total = 0.0;
  for (std::size_t n = 0; n < batch; ++n) {
    // Seed max/argmax from class 0: a sentinel start value misreports both
    // when every logit sits at or below it.
    float maxv = logits.at2(n, 0);
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < classes; ++c) {
      if (logits.at2(n, c) > maxv) {
        maxv = logits.at2(n, c);
        argmax = c;
      }
    }
    if (argmax == labels[n]) ++res.correct;
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      denom += std::exp(static_cast<double>(logits.at2(n, c) - maxv));
    }
    const double logden = std::log(denom);
    const double logp =
        static_cast<double>(logits.at2(n, labels[n]) - maxv) - logden;
    total -= logp;
    const float inv_batch = 1.0f / static_cast<float>(batch);
    for (std::size_t c = 0; c < classes; ++c) {
      const double p =
          std::exp(static_cast<double>(logits.at2(n, c) - maxv)) / denom;
      res.grad.at2(n, c) =
          (static_cast<float>(p) - (c == labels[n] ? 1.0f : 0.0f)) * inv_batch;
    }
  }
  res.loss = static_cast<float>(total / static_cast<double>(batch));
  return res;
}

std::pair<Tensor, std::vector<std::uint16_t>> Dataset::batch(
    const std::vector<std::size_t>& indices) const {
  DL_REQUIRE(images.rank() == 4, "dataset images must be NCHW");
  const std::size_t c = images.dim(1), h = images.dim(2), w = images.dim(3);
  const std::size_t img = c * h * w;
  Tensor out({indices.size(), c, h, w});
  std::vector<std::uint16_t> lab(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    DL_REQUIRE(indices[i] < size(), "batch index out of dataset");
    std::copy_n(images.data() + indices[i] * img, img, out.data() + i * img);
    lab[i] = labels[indices[i]];
  }
  return {std::move(out), std::move(lab)};
}

double evaluate_accuracy(Model& model, const Dataset& data,
                         std::size_t chunk) {
  std::size_t correct = 0;
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < data.size(); start += chunk) {
    const std::size_t end = std::min(start + chunk, data.size());
    idx.clear();
    for (std::size_t i = start; i < end; ++i) idx.push_back(i);
    auto [x, y] = data.batch(idx);
    const Tensor logits = model.forward(x, /*train=*/false);
    const LossResult r = softmax_cross_entropy(logits, y);
    correct += r.correct;
  }
  return data.size() ? static_cast<double>(correct) /
                           static_cast<double>(data.size())
                     : 0.0;
}

}  // namespace dl::nn
