// Concrete layers: Conv2d (im2col+GEMM), Linear, BatchNorm2d, ReLU,
// MaxPool2d(2x2), global average pool, Flatten.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"

namespace dl::nn {

class Conv2d final : public Layer {
 public:
  /// 3x3/1x1 convolutions with square kernels, no bias (BN follows).
  Conv2d(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
         std::size_t stride, std::size_t pad, dl::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_}; }
  [[nodiscard]] std::string name() const override { return "conv2d"; }

  [[nodiscard]] Param& weight() { return weight_; }
  [[nodiscard]] std::size_t in_channels() const { return in_ch_; }
  [[nodiscard]] std::size_t out_channels() const { return out_ch_; }

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_, pad_;
  Param weight_;  ///< [out_ch, in_ch, k, k]
  Tensor cached_input_;

  [[nodiscard]] std::size_t out_size(std::size_t in) const {
    return (in + 2 * pad_ - kernel_) / stride_ + 1;
  }
  /// Patch-matrix layouts.  Forward multiplies W[out_ch, patch] by
  /// [patch x ho*wo] (kPatchRows); the weight gradient multiplies
  /// dy[out_ch, ho*wo] by the k-major [ho*wo x patch] (kPixelRows).
  enum class PatchLayout { kPatchRows, kPixelRows };
  /// Writes sample n's patch matrix into `cols` (patch * ho*wo floats).
  void im2col(const Tensor& x, std::size_t n, float* cols,
              PatchLayout layout) const;
  /// Adds a [patch x ho*wo] patch gradient into sample n of `grad_in`.
  void col2im(const float* cols, std::size_t n, Tensor& grad_in) const;
};

class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, dl::Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "linear"; }

  [[nodiscard]] Param& weight() { return weight_; }
  [[nodiscard]] Param& bias() { return bias_; }

 private:
  std::size_t in_f_, out_f_;
  Param weight_;  ///< [out_features, in_features]
  Param bias_;    ///< [out_features]
  Tensor cached_input_;
};

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  [[nodiscard]] std::string name() const override { return "batchnorm2d"; }

 private:
  std::size_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Forward cache for backward.
  Tensor cached_xhat_;
  std::vector<float> cached_invstd_;
  std::size_t cached_count_ = 0;
};

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  std::vector<std::uint8_t> mask_;
};

/// 2x2 max pooling with stride 2.
class MaxPool2d final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "maxpool2d"; }

 private:
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> in_shape_;
};

/// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "gap"; }

 private:
  std::vector<std::size_t> in_shape_;
};

/// [N,C,H,W] -> [N, C*H*W].
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::string name() const override { return "flatten"; }

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace dl::nn
