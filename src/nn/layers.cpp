#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"

namespace dl::nn {

namespace {
/// Elementwise-loop grain: large enough that chunk dispatch is noise,
/// small enough that tensors of a few hundred KB still split.
constexpr std::size_t kEwGrain = 16384;
}  // namespace

// -------------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
               std::size_t stride, std::size_t pad, dl::Rng& rng)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_("conv.w") {
  weight_.init(Tensor::kaiming({out_ch, in_ch, kernel, kernel},
                               in_ch * kernel * kernel, rng));
}

namespace {
/// Output positions [lo, hi) along one axis whose input coordinate
/// o * stride + tap - pad falls inside [0, in): the unpadded span of one
/// kernel tap.  Outside it the tap reads padding.
struct TapSpan {
  std::size_t lo, hi;
};
TapSpan tap_span(std::size_t tap, std::size_t in, std::size_t out,
                 std::size_t stride, std::size_t pad) {
  const auto ceil_div = [stride](std::size_t v) {
    return (v + stride - 1) / stride;
  };
  const std::size_t lo = std::min(out, tap >= pad ? 0 : ceil_div(pad - tap));
  const std::size_t hi = tap >= in + pad ? 0 : ceil_div(in + pad - tap);
  return {lo, std::clamp(hi, lo, out)};
}
}  // namespace

void Conv2d::im2col(const Tensor& x, std::size_t n, float* cols,
                    PatchLayout layout) const {
  const std::size_t h = x.dim(2), w = x.dim(3);
  const std::size_t ho = out_size(h), wo = out_size(w);
  const std::size_t patch = in_ch_ * kernel_ * kernel_;
  // Tap prow = (c, kh, kw) of output pixel i = oh * wo + ow lands at
  // cols[prow * prow_step + i * pix_step].
  const bool by_patch = layout == PatchLayout::kPatchRows;
  const std::size_t prow_step = by_patch ? ho * wo : 1;
  const std::size_t pix_step = by_patch ? 1 : patch;
  // Output rows are filled a block at a time, tap by tap.  A patch row is
  // contiguous, so one block covers the map; pixel rows interleave all
  // taps, so their block is sized to stay in L1 while every tap visits it.
  constexpr std::size_t kPixelBlockFloats = 8192;
  const std::size_t block_rows =
      by_patch ? ho : std::max<std::size_t>(1, kPixelBlockFloats / (wo * patch));
  // At stride 1 with input rows as long as output rows, a tap's unpadded
  // pixels in consecutive output rows read one run of the input plane:
  // pixel i reads plane[i + kh * w + kw - pad * (w + 1)], so a patch row
  // is filled by one contiguous copy.  The copy also passes over the
  // padding columns between rows; those are zeroed after it.
  const bool one_run = by_patch && stride_ == 1 && w == wo;
  const float* sample = x.data() + x.index4(n, 0, 0, 0);
  const auto zero = [pix_step](float* dst, std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) dst[i * pix_step] = 0.0f;
  };
  for (std::size_t b0 = 0; b0 < ho; b0 += block_rows) {
    const std::size_t b1 = std::min(ho, b0 + block_rows);
    for (std::size_t c = 0; c < in_ch_; ++c) {
      const float* plane = sample + c * h * w;
      for (std::size_t kh = 0; kh < kernel_; ++kh) {
        const TapSpan rows = tap_span(kh, h, ho, stride_, pad_);
        const std::size_t r0 = std::clamp(rows.lo, b0, b1);
        const std::size_t r1 = std::clamp(rows.hi, r0, b1);
        for (std::size_t kw = 0; kw < kernel_; ++kw) {
          const TapSpan span = tap_span(kw, w, wo, stride_, pad_);
          float* dst = cols + ((c * kernel_ + kh) * kernel_ + kw) * prow_step;
          zero(dst, b0 * wo, r0 * wo);
          if (one_run && r0 < r1 && span.lo < span.hi) {
            const std::size_t first = r0 * wo + span.lo;
            const std::size_t last = (r1 - 1) * wo + span.hi;
            const std::size_t shift = kh * w + kw, back = pad_ * (w + 1);
            for (std::size_t i = first; i < last; ++i) {
              dst[i] = plane[i + shift - back];
            }
            for (std::size_t oh = r0; oh < r1; ++oh) {
              zero(dst, oh * wo, oh * wo + span.lo);
              zero(dst, oh * wo + span.hi, (oh + 1) * wo);
            }
          } else {
            for (std::size_t oh = r0; oh < r1; ++oh) {
              const float* row = plane + (oh * stride_ + kh - pad_) * w;
              float* d = dst + oh * wo * pix_step;
              zero(d, 0, span.lo);
              for (std::size_t ow = span.lo; ow < span.hi; ++ow) {
                d[ow * pix_step] = row[ow * stride_ + kw - pad_];
              }
              zero(d, span.hi, wo);
            }
          }
          zero(dst, r1 * wo, b1 * wo);
        }
      }
    }
  }
}

void Conv2d::col2im(const float* cols, std::size_t n, Tensor& grad_in) const {
  const std::size_t h = grad_in.dim(2), w = grad_in.dim(3);
  const std::size_t ho = out_size(h), wo = out_size(w);
  float* sample = grad_in.data() + grad_in.index4(n, 0, 0, 0);
  // Taps are added in (c, kh, kw, oh, ow) order, so every input element
  // sums its contributions in ascending (kh, kw).
  for (std::size_t c = 0; c < in_ch_; ++c) {
    for (std::size_t kh = 0; kh < kernel_; ++kh) {
      const TapSpan rows = tap_span(kh, h, ho, stride_, pad_);
      for (std::size_t kw = 0; kw < kernel_; ++kw) {
        const TapSpan span = tap_span(kw, w, wo, stride_, pad_);
        const std::size_t prow = (c * kernel_ + kh) * kernel_ + kw;
        for (std::size_t oh = rows.lo; oh < rows.hi; ++oh) {
          const float* src = cols + (prow * ho + oh) * wo;
          float* row = sample + (c * h + oh * stride_ + kh - pad_) * w;
          if (stride_ == 1) {
            for (std::size_t ow = span.lo; ow < span.hi; ++ow) {
              row[ow + kw - pad_] += src[ow];
            }
          } else {
            for (std::size_t ow = span.lo; ow < span.hi; ++ow) {
              row[ow * stride_ + kw - pad_] += src[ow];
            }
          }
        }
      }
    }
  }
}

Tensor Conv2d::forward(const Tensor& x, bool) {
  DL_REQUIRE(x.rank() == 4 && x.dim(1) == in_ch_, "conv input shape mismatch");
  cached_input_ = x;
  const std::size_t batch = x.dim(0);
  const std::size_t ho = out_size(x.dim(2)), wo = out_size(x.dim(3));
  Tensor y({batch, out_ch_, ho, wo});
  const std::size_t patch = in_ch_ * kernel_ * kernel_;
  // Batch-parallel: each sample's output slab is disjoint, and the im2col
  // scratch is per worker thread, reused across samples and layers.
  dl::parallel::parallel_for(
      0, batch, 1, [&](std::size_t n0, std::size_t n1, std::size_t) {
        thread_local std::vector<float> cols;
        if (cols.size() < patch * ho * wo) cols.resize(patch * ho * wo);
        for (std::size_t n = n0; n < n1; ++n) {
          im2col(x, n, cols.data(), PatchLayout::kPatchRows);
          // y[n] = W[out_ch, patch] * cols[patch, ho*wo]
          gemm(out_ch_, patch, ho * wo, weight_.value.data(), cols.data(),
               y.data() + n * out_ch_ * ho * wo);
        }
      });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const std::size_t batch = x.dim(0);
  const std::size_t ho = out_size(x.dim(2)), wo = out_size(x.dim(3));
  const std::size_t patch = in_ch_ * kernel_ * kernel_;
  Tensor grad_in(x.shape());
  // Batch-parallel with one dW partial per fixed-size sample chunk: the
  // chunk grid depends only on the batch size and the constant grain,
  // never on the thread count, and partials merge serially in chunk
  // order — so the gradient is bit-identical for any DL_THREADS value.
  // grad_in slabs are disjoint per sample.  The patch matrix is rebuilt
  // here rather than kept from forward: a cached copy would hold
  // batch x patch x ho*wo floats per layer for the whole backward pass.
  constexpr std::size_t kBwdGrain = 4;  // samples per dW partial
  const std::size_t wsize = weight_.grad.numel();
  std::vector<std::vector<float>> dw_partial(
      dl::parallel::chunk_count(0, batch, kBwdGrain));
  dl::parallel::parallel_for(
      0, batch, kBwdGrain,
      [&](std::size_t n0, std::size_t n1, std::size_t ci) {
        thread_local std::vector<float> cols;
        thread_local std::vector<float> dcols;
        if (cols.size() < patch * ho * wo) cols.resize(patch * ho * wo);
        if (dcols.size() < patch * ho * wo) dcols.resize(patch * ho * wo);
        auto& dw = dw_partial[ci];
        dw.assign(wsize, 0.0f);
        for (std::size_t n = n0; n < n1; ++n) {
          im2col(x, n, cols.data(), PatchLayout::kPixelRows);
          const float* dy = grad_out.data() + n * out_ch_ * ho * wo;
          // dW[out_ch, patch] += dy[out_ch, ho*wo] * cols[ho*wo, patch]
          gemm(out_ch_, ho * wo, patch, dy, cols.data(), dw.data(),
               /*accumulate=*/true);
          // dcols[patch, ho*wo] = W^T[patch, out_ch] * dy[out_ch, ho*wo]
          gemm_at(patch, out_ch_, ho * wo, weight_.value.data(), dy,
                  dcols.data());
          col2im(dcols.data(), n, grad_in);
        }
      });
  float* dw_out = weight_.grad.data();
  for (const auto& dw : dw_partial) {
    for (std::size_t i = 0; i < wsize; ++i) dw_out[i] += dw[i];
  }
  return grad_in;
}

// -------------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features,
               dl::Rng& rng)
    : in_f_(in_features),
      out_f_(out_features),
      weight_("linear.w"),
      bias_("linear.b") {
  weight_.init(Tensor::kaiming({out_features, in_features}, in_features, rng));
  bias_.init(Tensor::zeros({out_features}));
}

Tensor Linear::forward(const Tensor& x, bool) {
  DL_REQUIRE(x.rank() == 2 && x.dim(1) == in_f_, "linear input mismatch");
  cached_input_ = x;
  const std::size_t batch = x.dim(0);
  Tensor y({batch, out_f_});
  // y = x[batch, in] * W^T[in, out]
  gemm_bt(batch, in_f_, out_f_, x.data(), weight_.value.data(), y.data());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t o = 0; o < out_f_; ++o) y.at2(n, o) += bias_.value[o];
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const std::size_t batch = x.dim(0);
  // dW[out, in] += dy^T[out, batch] * x[batch, in]
  gemm_at(out_f_, batch, in_f_, grad_out.data(), x.data(),
          weight_.grad.data(), /*accumulate=*/true);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t o = 0; o < out_f_; ++o) {
      bias_.grad[o] += grad_out.at2(n, o);
    }
  }
  Tensor grad_in({batch, in_f_});
  // dx = dy[batch, out] * W[out, in]
  gemm(batch, out_f_, in_f_, grad_out.data(), weight_.value.data(),
       grad_in.data());
  return grad_in;
}

// --------------------------------------------------------------- BatchNorm2d

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma"),
      beta_("bn.beta"),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::zeros({channels})) {
  Tensor g({channels});
  g.fill(1.0f);
  gamma_.init(std::move(g));
  beta_.init(Tensor::zeros({channels}));
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  DL_REQUIRE(x.rank() == 4 && x.dim(1) == channels_, "bn input mismatch");
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t count = batch * h * w;
  Tensor y(x.shape());
  cached_xhat_ = Tensor(x.shape());
  cached_invstd_.assign(channels_, 0.0f);
  cached_count_ = count;

  // Channel-parallel: every channel's statistics, running-average update,
  // and normalization touch disjoint state, and the per-channel loops are
  // unchanged — results are identical for any thread count.
  dl::parallel::parallel_for(0, channels_, 1, [&](std::size_t c0,
                                                  std::size_t c1,
                                                  std::size_t) {
  for (std::size_t c = c0; c < c1; ++c) {
    float mean, var;
    if (train) {
      double sum = 0.0, sq = 0.0;
      for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t i = 0; i < h * w; ++i) {
          const float v = x.data()[x.index4(n, c, 0, 0) + i];
          sum += v;
          sq += static_cast<double>(v) * v;
        }
      }
      mean = static_cast<float>(sum / static_cast<double>(count));
      var = static_cast<float>(sq / static_cast<double>(count)) - mean * mean;
      var = std::max(var, 0.0f);
      running_mean_[c] = (1 - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1 - momentum_) * running_var_[c] + momentum_ * var;
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float invstd = 1.0f / std::sqrt(var + eps_);
    cached_invstd_[c] = invstd;
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::size_t n = 0; n < batch; ++n) {
      const std::size_t base = x.index4(n, c, 0, 0);
      for (std::size_t i = 0; i < h * w; ++i) {
        const float xh = (x.data()[base + i] - mean) * invstd;
        cached_xhat_.data()[base + i] = xh;
        y.data()[base + i] = g * xh + b;
      }
    }
  }
  });
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  const std::size_t batch = grad_out.dim(0), h = grad_out.dim(2),
                    w = grad_out.dim(3);
  const auto count = static_cast<float>(cached_count_);
  Tensor grad_in(grad_out.shape());
  dl::parallel::parallel_for(0, channels_, 1, [&](std::size_t c0,
                                                  std::size_t c1,
                                                  std::size_t) {
  for (std::size_t c = c0; c < c1; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      const std::size_t base = grad_out.index4(n, c, 0, 0);
      for (std::size_t i = 0; i < h * w; ++i) {
        const float dy = grad_out.data()[base + i];
        sum_dy += dy;
        sum_dy_xhat += static_cast<double>(dy) * cached_xhat_.data()[base + i];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad[c] += static_cast<float>(sum_dy);
    const float g = gamma_.value[c];
    const float invstd = cached_invstd_[c];
    const auto mean_dy = static_cast<float>(sum_dy / count);
    const auto mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
    for (std::size_t n = 0; n < batch; ++n) {
      const std::size_t base = grad_out.index4(n, c, 0, 0);
      for (std::size_t i = 0; i < h * w; ++i) {
        const float dy = grad_out.data()[base + i];
        const float xh = cached_xhat_.data()[base + i];
        grad_in.data()[base + i] =
            g * invstd * (dy - mean_dy - xh * mean_dy_xhat);
      }
    }
  }
  });
  return grad_in;
}

// ---------------------------------------------------------------------- ReLU

Tensor ReLU::forward(const Tensor& x, bool) {
  Tensor y(x.shape());
  mask_.resize(x.numel());
  dl::parallel::parallel_for(
      0, x.numel(), kEwGrain,
      [&](std::size_t i0, std::size_t i1, std::size_t) {
        // Local pointers: a store through the uint8_t mask may alias any
        // object in memory, so pointers read from it (or from a capture)
        // would reload every step and keep the loop from vectorizing.
        const float* in = x.data();
        float* out = y.data();
        std::uint8_t* mask = mask_.data();
        for (std::size_t i = i0; i < i1; ++i) {
          // NaN, -0 and -inf all fail the test and map to +0.
          const bool pos = in[i] > 0.0f;
          out[i] = pos ? in[i] : 0.0f;
          mask[i] = pos;
        }
      });
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  dl::parallel::parallel_for(
      0, grad_out.numel(), kEwGrain,
      [&](std::size_t i0, std::size_t i1, std::size_t) {
        // Local pointers, as in forward, so the select vectorizes.
        const std::uint8_t* mask = mask_.data();
        const float* dy = grad_out.data();
        float* dx = grad_in.data();
        for (std::size_t i = i0; i < i1; ++i) dx[i] = mask[i] ? dy[i] : 0.0f;
      });
  return grad_in;
}

// ----------------------------------------------------------------- MaxPool2d

Tensor MaxPool2d::forward(const Tensor& x, bool) {
  const std::size_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  DL_REQUIRE(h % 2 == 0 && w % 2 == 0, "maxpool needs even spatial dims");
  in_shape_ = x.shape();
  const std::size_t ho = h / 2, wo = w / 2;
  Tensor y({batch, ch, ho, wo});
  argmax_.assign(y.numel(), 0);
  // Parallel over (sample, channel) planes; the output index is computed
  // from the plane index so chunks are independent.
  dl::parallel::parallel_for(
      0, batch * ch, 1, [&](std::size_t nc0, std::size_t nc1, std::size_t) {
        for (std::size_t nc = nc0; nc < nc1; ++nc) {
          const std::size_t n = nc / ch, c = nc % ch;
          std::size_t oi = nc * ho * wo;
          for (std::size_t oh = 0; oh < ho; ++oh) {
            for (std::size_t ow = 0; ow < wo; ++ow, ++oi) {
              // Seed max/argmax from the first window element: a sentinel
              // start value misreports both when the whole window sits at
              // or below the sentinel.
              std::size_t best_idx = x.index4(n, c, oh * 2, ow * 2);
              float best = x[best_idx];
              for (std::size_t dh = 0; dh < 2; ++dh) {
                for (std::size_t dw = dh == 0 ? 1 : 0; dw < 2; ++dw) {
                  const std::size_t idx =
                      x.index4(n, c, oh * 2 + dh, ow * 2 + dw);
                  if (x[idx] > best) {
                    best = x[idx];
                    best_idx = idx;
                  }
                }
              }
              y[oi] = best;
              argmax_[oi] = best_idx;
            }
          }
        }
      });
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  // 2x2 windows are disjoint, so distinct outputs scatter to distinct
  // argmax cells — chunks never write the same element.
  dl::parallel::parallel_for(
      0, grad_out.numel(), kEwGrain,
      [&](std::size_t i0, std::size_t i1, std::size_t) {
        for (std::size_t i = i0; i < i1; ++i) {
          grad_in[argmax_[i]] += grad_out[i];
        }
      });
  return grad_in;
}

// ------------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& x, bool) {
  const std::size_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  in_shape_ = x.shape();
  Tensor y({batch, ch});
  const float scale = 1.0f / static_cast<float>(h * w);
  dl::parallel::parallel_for(
      0, batch * ch, 8, [&](std::size_t nc0, std::size_t nc1, std::size_t) {
        for (std::size_t nc = nc0; nc < nc1; ++nc) {
          float sum = 0.0f;
          const std::size_t base = nc * h * w;
          for (std::size_t i = 0; i < h * w; ++i) sum += x.data()[base + i];
          y[nc] = sum * scale;
        }
      });
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  const std::size_t h = in_shape_[2], w = in_shape_[3];
  const float scale = 1.0f / static_cast<float>(h * w);
  for (std::size_t n = 0; n < in_shape_[0]; ++n) {
    for (std::size_t c = 0; c < in_shape_[1]; ++c) {
      const float g = grad_out.at2(n, c) * scale;
      const std::size_t base = grad_in.index4(n, c, 0, 0);
      for (std::size_t i = 0; i < h * w; ++i) grad_in.data()[base + i] = g;
    }
  }
  return grad_in;
}

// ------------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& x, bool) {
  in_shape_ = x.shape();
  Tensor y = x;
  y.reshape({x.dim(0), x.numel() / x.dim(0)});
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  Tensor grad_in = grad_out;
  grad_in.reshape(in_shape_);
  return grad_in;
}

}  // namespace dl::nn
