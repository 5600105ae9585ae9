// Minimal dense float tensor (NCHW) for the DNN substrate.
//
// The evaluation needs a trainable, quantizable inference stack — not a
// framework.  Tensor is a contiguous float buffer with a shape; layers
// index it directly.  All shapes used in this repo are 1-D, 2-D ([N,F]) or
// 4-D ([N,C,H,W]).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dl::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);

  [[nodiscard]] static Tensor zeros(std::vector<std::size_t> shape);
  /// Kaiming-uniform initialization for a weight with `fan_in`.
  [[nodiscard]] static Tensor kaiming(std::vector<std::size_t> shape,
                                      std::size_t fan_in, dl::Rng& rng);

  [[nodiscard]] const std::vector<std::size_t>& shape() const { return shape_; }
  [[nodiscard]] std::size_t numel() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const;
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::span<float> flat() { return data_; }
  [[nodiscard]] std::span<const float> flat() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 4-D accessor (NCHW).  Inline: the layers call it per element.
  [[nodiscard]] std::size_t index4(std::size_t n, std::size_t c, std::size_t h,
                                   std::size_t w) const {
    return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  }
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[index4(n, c, h, w)];
  }
  [[nodiscard]] float at4(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w) const {
    return data_[index4(n, c, h, w)];
  }

  /// 2-D accessor ([rows, cols]).
  float& at2(std::size_t r, std::size_t c) {
    return data_[r * shape_[1] + c];
  }
  [[nodiscard]] float at2(std::size_t r, std::size_t c) const {
    return data_[r * shape_[1] + c];
  }

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Reshape preserving element count.
  void reshape(std::vector<std::size_t> shape);

  [[nodiscard]] std::string shape_string() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// A trainable parameter: value plus accumulated gradient.
struct Param {
  Tensor value;
  Tensor grad;
  std::string name;

  explicit Param(std::string n = "") : name(std::move(n)) {}
  void init(Tensor v) {
    grad = Tensor::zeros(v.shape());
    value = std::move(v);
  }
};

/// C = A(mxk) * B(kxn), accumulating into C when `accumulate` is set.
/// The single GEMM kernel behind conv (im2col) and linear layers.
///
/// All three kernels are cache-blocked, keep a 4x16 C tile in registers
/// across each k panel, and run on the dl::parallel pool.  Each C element
/// gets c += a * b for its k products in ascending-p order regardless of
/// the thread count, so results are bit-identical for any DL_THREADS and
/// gemm / gemm_at match their reference:: loops bit for bit.
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate = false);

/// C = A^T(mxk, stored kxm) * B(kxn): used by backward passes.
void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate = false);

/// C = A(mxk) * B^T(nxk): used by Linear's forward pass (x * W^T).
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate = false);

/// Naive single-threaded triple-loop kernels, kept as the ground truth for
/// the blocked kernels' parity tests and as the micro-bench baseline.
/// Unlike the historical kernels these do NOT skip zero A elements, so
/// NaN/Inf in B propagate into C as IEEE arithmetic demands.
namespace reference {
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c, bool accumulate = false);
void gemm_at(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate = false);
void gemm_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, bool accumulate = false);
}  // namespace reference

}  // namespace dl::nn
