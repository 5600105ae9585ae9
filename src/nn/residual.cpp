#include "nn/residual.hpp"

namespace dl::nn {

BasicBlock::BasicBlock(std::size_t in_ch, std::size_t out_ch,
                       std::size_t stride, dl::Rng& rng)
    : conv1_(in_ch, out_ch, 3, stride, 1, rng),
      bn1_(out_ch),
      conv2_(out_ch, out_ch, 3, 1, 1, rng),
      bn2_(out_ch) {
  if (stride != 1 || in_ch != out_ch) {
    proj_ = std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0, rng);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_ch);
  }
}

Tensor BasicBlock::forward(const Tensor& x, bool train) {
  Tensor main = bn1_.forward(conv1_.forward(x, train), train);
  main = relu1_.forward(main, train);
  main = bn2_.forward(conv2_.forward(main, train), train);

  Tensor shortcut =
      proj_ ? proj_bn_->forward(proj_->forward(x, train), train) : x;
  DL_REQUIRE(shortcut.numel() == main.numel(), "shortcut shape mismatch");

  Tensor y(main.shape());
  relu_mask_.resize(main.numel());
  // Local pointers, as in ReLU::forward: the uint8_t mask store may alias
  // any object, which would otherwise stop the loop from vectorizing.
  const float* a = main.data();
  const float* b = shortcut.data();
  float* out = y.data();
  std::uint8_t* mask = relu_mask_.data();
  for (std::size_t i = 0, count = main.numel(); i < count; ++i) {
    const float pre = a[i] + b[i];
    const bool pos = pre > 0.0f;
    out[i] = pos ? pre : 0.0f;
    mask[i] = pos;
  }
  return y;
}

Tensor BasicBlock::backward(const Tensor& grad_out) {
  Tensor d_pre(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.numel(); ++i) {
    d_pre[i] = relu_mask_[i] ? grad_out[i] : 0.0f;
  }
  // Main branch.
  Tensor d_main = conv2_.backward(bn2_.backward(d_pre));
  d_main = relu1_.backward(d_main);
  Tensor grad_in = conv1_.backward(bn1_.backward(d_main));
  // Shortcut branch.
  if (proj_) {
    Tensor d_short = proj_->backward(proj_bn_->backward(d_pre));
    for (std::size_t i = 0; i < grad_in.numel(); ++i) {
      grad_in[i] += d_short[i];
    }
  } else {
    for (std::size_t i = 0; i < grad_in.numel(); ++i) {
      grad_in[i] += d_pre[i];
    }
  }
  return grad_in;
}

std::vector<Param*> BasicBlock::params() {
  std::vector<Param*> out;
  auto append = [&](std::vector<Param*> v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  append(conv1_.params());
  append(bn1_.params());
  append(conv2_.params());
  append(bn2_.params());
  if (proj_) {
    append(proj_->params());
    append(proj_bn_->params());
  }
  return out;
}

}  // namespace dl::nn
