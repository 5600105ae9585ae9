// Layer forward/backward tests, including finite-difference gradient checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "nn/model.hpp"
#include "nn/residual.hpp"

namespace {

using namespace dl::nn;

Tensor randn(std::vector<std::size_t> shape, dl::Rng& rng, float scale = 1.f) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = scale * static_cast<float>(rng.normal());
  }
  return t;
}

/// Scalar loss used by gradient checks: sum of 0.5*y^2 so dL/dy = y.
float half_sq_sum(const Tensor& y) {
  double s = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    s += 0.5 * static_cast<double>(y[i]) * y[i];
  }
  return static_cast<float>(s);
}

/// Checks layer input gradients and parameter gradients against central
/// finite differences.
void grad_check(Layer& layer, Tensor x, float tol = 2e-2f) {
  // Analytic gradients.
  Tensor y = layer.forward(x, /*train=*/true);
  Tensor dy = y;  // dL/dy = y for the half-square loss
  for (Param* p : layer.params()) p->grad.zero();
  Tensor dx = layer.backward(dy);

  const float eps = 1e-2f;
  auto loss_at = [&](Tensor& storage, std::size_t idx, float delta) {
    const float saved = storage[idx];
    storage[idx] = saved + delta;
    const float l = half_sq_sum(layer.forward(x, /*train=*/true));
    storage[idx] = saved;
    return l;
  };

  // Input gradient at a handful of positions.
  for (std::size_t idx = 0; idx < x.numel();
       idx += std::max<std::size_t>(1, x.numel() / 7)) {
    const float lp = loss_at(x, idx, eps);
    const float lm = loss_at(x, idx, -eps);
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx[idx], numeric, tol * std::max(1.0f, std::abs(numeric)))
        << "input idx " << idx;
  }
  // Parameter gradients.
  for (Param* p : layer.params()) {
    for (std::size_t idx = 0; idx < p->value.numel();
         idx += std::max<std::size_t>(1, p->value.numel() / 5)) {
      const float lp = loss_at(p->value, idx, eps);
      const float lm = loss_at(p->value, idx, -eps);
      const float numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[idx], numeric,
                  tol * std::max(1.0f, std::abs(numeric)))
          << p->name << " idx " << idx;
    }
  }
}

TEST(Conv2d, ForwardIdentityKernel) {
  dl::Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.zero();
  conv.weight().value[4] = 1.0f;  // centre tap: identity
  Tensor x = randn({1, 1, 4, 4}, rng);
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, ForwardShiftKernel) {
  dl::Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.zero();
  conv.weight().value[5] = 1.0f;  // right tap: shifts image left
  Tensor x({1, 1, 2, 3});
  for (std::size_t i = 0; i < 6; ++i) x[i] = static_cast<float>(i + 1);
  const Tensor y = conv.forward(x, false);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 3.0f);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 2), 0.0f);  // zero padding
}

TEST(Conv2d, StrideHalvesOutput) {
  dl::Rng rng(1);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  Tensor x = randn({2, 3, 8, 8}, rng);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.dim(2), 4u);
  EXPECT_EQ(y.dim(3), 4u);
  EXPECT_EQ(y.dim(1), 8u);
}

TEST(Conv2d, GradCheck3x3) {
  dl::Rng rng(2);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  grad_check(conv, randn({2, 2, 4, 4}, rng, 0.5f));
}

TEST(Conv2d, GradCheckStride2) {
  dl::Rng rng(3);
  Conv2d conv(2, 2, 3, 2, 1, rng);
  grad_check(conv, randn({1, 2, 6, 6}, rng, 0.5f));
}

TEST(Conv2d, GradCheck1x1) {
  dl::Rng rng(4);
  Conv2d conv(3, 4, 1, 1, 0, rng);
  grad_check(conv, randn({2, 3, 3, 3}, rng, 0.5f));
}

/// Tap (c, kh, kw) = prow of output pixel (oh, ow) for sample n, read one
/// element at a time with explicit bounds checks: 0 where it reads padding.
float naive_tap(const Tensor& x, std::size_t n, std::size_t prow,
                std::size_t oh, std::size_t ow, std::size_t k, std::size_t s,
                std::size_t pad) {
  const std::size_t c = prow / (k * k), kh = prow / k % k, kw = prow % k;
  const auto ih = static_cast<std::int64_t>(oh * s + kh) -
                  static_cast<std::int64_t>(pad);
  const auto iw = static_cast<std::int64_t>(ow * s + kw) -
                  static_cast<std::int64_t>(pad);
  if (ih < 0 || iw < 0 || ih >= static_cast<std::int64_t>(x.dim(2)) ||
      iw >= static_cast<std::int64_t>(x.dim(3))) {
    return 0.0f;
  }
  return x.at4(n, c, static_cast<std::size_t>(ih),
               static_cast<std::size_t>(iw));
}

bool same_bits(const float* got, const float* want, std::size_t count) {
  return std::memcmp(got, want, count * sizeof(float)) == 0;
}

TEST(Conv2d, MatchesNaiveIm2colBitwise) {
  // Forward, dW and grad_in must equal, byte for byte, the same GEMM calls
  // fed by a per-element im2col/col2im: every kernel/stride/pad and input
  // size where H + 2*pad >= kernel, including stride-2 odd widths, the 1x1
  // stride-2 projection and inputs narrower than the kernel.
  constexpr std::size_t kIn = 3, kOut = 5;
  constexpr std::size_t kBatch = 2;  // one dW partial: grad = 0 + partial
  const std::size_t sizes[] = {1, 2, 5, 7, 8};
  std::size_t cases = 0;
  for (const std::size_t k : {1u, 3u}) {
    for (const std::size_t s : {1u, 2u}) {
      for (const std::size_t pad : {0u, 1u}) {
        for (const std::size_t h : sizes) {
          for (const std::size_t w : sizes) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            ++cases;
            SCOPED_TRACE("k=" + std::to_string(k) + " s=" + std::to_string(s) +
                         " pad=" + std::to_string(pad) + " h=" +
                         std::to_string(h) + " w=" + std::to_string(w));
            dl::Rng rng(cases);
            Conv2d conv(kIn, kOut, k, s, pad, rng);
            const Tensor x = randn({kBatch, kIn, h, w}, rng);
            const Tensor y = conv.forward(x, /*train=*/true);
            const std::size_t ho = (h + 2 * pad - k) / s + 1;
            const std::size_t wo = (w + 2 * pad - k) / s + 1;
            const std::size_t hw = ho * wo, patch = kIn * k * k;
            ASSERT_EQ(y.shape(),
                      (std::vector<std::size_t>{kBatch, kOut, ho, wo}));
            const float* wt = conv.weight().value.data();

            std::vector<float> cols(patch * hw), want_y(y.numel());
            for (std::size_t n = 0; n < kBatch; ++n) {
              for (std::size_t prow = 0; prow < patch; ++prow) {
                for (std::size_t px = 0; px < hw; ++px) {
                  cols[prow * hw + px] =
                      naive_tap(x, n, prow, px / wo, px % wo, k, s, pad);
                }
              }
              gemm(kOut, patch, hw, wt, cols.data(),
                   want_y.data() + n * kOut * hw);
            }
            EXPECT_TRUE(same_bits(y.data(), want_y.data(), y.numel()))
                << "forward";

            const Tensor dy = randn(y.shape(), rng);
            const Tensor dx = conv.backward(dy);
            std::vector<float> dw(kOut * patch, 0.0f), dcols(patch * hw);
            std::vector<float> want_dx(x.numel(), 0.0f);
            for (std::size_t n = 0; n < kBatch; ++n) {
              for (std::size_t px = 0; px < hw; ++px) {
                for (std::size_t prow = 0; prow < patch; ++prow) {
                  cols[px * patch + prow] =
                      naive_tap(x, n, prow, px / wo, px % wo, k, s, pad);
                }
              }
              const float* dyn = dy.data() + n * kOut * hw;
              gemm(kOut, hw, patch, dyn, cols.data(), dw.data(),
                   /*accumulate=*/true);
              gemm_at(patch, kOut, hw, wt, dyn, dcols.data());
              for (std::size_t prow = 0; prow < patch; ++prow) {
                const std::size_t c = prow / (k * k), kh = prow / k % k,
                                  kw = prow % k;
                for (std::size_t px = 0; px < hw; ++px) {
                  const std::size_t ih = px / wo * s + kh,
                                    iw = px % wo * s + kw;
                  if (ih < pad || iw < pad || ih - pad >= h || iw - pad >= w) {
                    continue;
                  }
                  want_dx[x.index4(n, c, ih - pad, iw - pad)] +=
                      dcols[prow * hw + px];
                }
              }
            }
            std::vector<float> want_dw(dw.size(), 0.0f);
            for (std::size_t i = 0; i < dw.size(); ++i) want_dw[i] += dw[i];
            EXPECT_TRUE(same_bits(conv.weight().grad.data(), want_dw.data(),
                                  want_dw.size()))
                << "dW";
            EXPECT_TRUE(same_bits(dx.data(), want_dx.data(), dx.numel()))
                << "grad_in";
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 168u);
}

TEST(Linear, ForwardKnownValues) {
  dl::Rng rng(5);
  Linear lin(2, 2, rng);
  lin.weight().value[0] = 1;  // w[0][0]
  lin.weight().value[1] = 2;  // w[0][1]
  lin.weight().value[2] = 3;
  lin.weight().value[3] = 4;
  lin.bias().value[0] = 10;
  lin.bias().value[1] = 20;
  Tensor x({1, 2});
  x[0] = 1;
  x[1] = 1;
  const Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 13.0f);  // 1+2+10
  EXPECT_FLOAT_EQ(y[1], 27.0f);  // 3+4+20
}

TEST(Linear, GradCheck) {
  dl::Rng rng(6);
  Linear lin(5, 3, rng);
  grad_check(lin, randn({4, 5}, rng, 0.5f));
}

TEST(BatchNorm2d, NormalizesInTraining) {
  dl::Rng rng(7);
  BatchNorm2d bn(3);
  Tensor x = randn({4, 3, 5, 5}, rng, 3.0f);
  const Tensor y = bn.forward(x, /*train=*/true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 3; ++c) {
    double sum = 0, sq = 0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 25; ++i) {
        const float v = y.data()[y.index4(n, c, 0, 0) + i];
        sum += v;
        sq += static_cast<double>(v) * v;
        ++count;
      }
    }
    const double mean = sum / count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / count - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  dl::Rng rng(8);
  BatchNorm2d bn(2);
  // Train on one distribution...
  for (int i = 0; i < 20; ++i) {
    Tensor x = randn({8, 2, 4, 4}, rng, 2.0f);
    bn.forward(x, /*train=*/true);
  }
  // ...then eval on a constant input: output must not be re-normalized to
  // zero mean (running stats are used instead of batch stats).
  Tensor x({2, 2, 4, 4});
  x.fill(5.0f);
  const Tensor y = bn.forward(x, /*train=*/false);
  EXPECT_GT(std::abs(y[0]), 0.5f);
}

TEST(BatchNorm2d, GradCheck) {
  dl::Rng rng(9);
  BatchNorm2d bn(2);
  grad_check(bn, randn({3, 2, 3, 3}, rng), /*tol=*/5e-2f);
}

TEST(ReLU, ForwardBackwardMasks) {
  // y is x where x > 0 and +0 everywhere else: NaN, -0 and -inf all map to
  // +0 and close the mask.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> in = {-1.0f, 2.0f, -3.0f, 4.0f, nan,
                                 0.0f,  -0.0f, inf, -inf};
  const std::vector<float> want = {0.0f, 2.0f, 0.0f, 4.0f, 0.0f,
                                   0.0f, 0.0f, inf,  0.0f};
  const std::vector<float> want_mask = {0, 1, 0, 1, 0, 0, 0, 1, 0};
  ReLU relu;
  Tensor x({in.size()});
  std::copy(in.begin(), in.end(), x.data());
  const Tensor y = relu.forward(x, false);
  Tensor dy({in.size()});
  dy.fill(1.0f);
  const Tensor dx = relu.backward(dy);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "y at " << i << " = " << y[i];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(dx[i]),
              std::bit_cast<std::uint32_t>(want_mask[i]))
        << "mask at " << i;
  }
}

TEST(MaxPool2d, ForwardPicksMaxAndRoutesGradient) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2});
  x[0] = 1;
  x[1] = 5;
  x[2] = 3;
  x[3] = 2;
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  Tensor dy({1, 1, 1, 1});
  dy[0] = 7.0f;
  const Tensor dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx[1], 7.0f);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
}

TEST(MaxPool2d, HandlesWindowsBelowOldSentinel) {
  // Regression: forward used to seed the max with -1e30, so a window whose
  // values are all <= -1e30 reported max -1e30 and argmax 0 (routing the
  // gradient to the wrong input).  The max/argmax must come from the
  // window itself.
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2});
  x[0] = -2e30f;
  x[1] = -3e30f;
  x[2] = -4e30f;
  x[3] = -2.5e30f;
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], -2e30f);
  Tensor dy({1, 1, 1, 1});
  dy[0] = 1.0f;
  const Tensor dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[1], 0.0f);
  EXPECT_FLOAT_EQ(dx[2], 0.0f);
  EXPECT_FLOAT_EQ(dx[3], 0.0f);
}

TEST(GlobalAvgPool, ForwardBackward) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2});
  for (std::size_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  const Tensor y = gap.forward(x, false);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 1.5f);  // mean of 0,1,2,3
  EXPECT_FLOAT_EQ(y.at2(0, 1), 5.5f);
  Tensor dy({1, 2});
  dy[0] = 4.0f;
  dy[1] = 8.0f;
  const Tensor dx = gap.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[4], 2.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  const Tensor y = flat.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 48}));
  const Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(BasicBlock, IdentityShortcutShapes) {
  dl::Rng rng(10);
  BasicBlock block(8, 8, 1, rng);
  Tensor x = randn({2, 8, 4, 4}, rng, 0.5f);
  const Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_EQ(block.params().size(), 6u);  // 2 convs + 2 BNs
}

TEST(BasicBlock, ProjectionShortcutShapes) {
  dl::Rng rng(11);
  BasicBlock block(8, 16, 2, rng);
  Tensor x = randn({2, 8, 8, 8}, rng, 0.5f);
  const Tensor y = block.forward(x, true);
  EXPECT_EQ(y.dim(1), 16u);
  EXPECT_EQ(y.dim(2), 4u);
  EXPECT_EQ(block.params().size(), 9u);  // + projection conv & BN
}

TEST(BasicBlock, BackwardProducesInputGradient) {
  dl::Rng rng(12);
  BasicBlock block(4, 4, 1, rng);
  Tensor x = randn({1, 4, 4, 4}, rng, 0.5f);
  const Tensor y = block.forward(x, true);
  Tensor dy(y.shape());
  dy.fill(1.0f);
  const Tensor dx = block.backward(dy);
  EXPECT_EQ(dx.shape(), x.shape());
  double mag = 0;
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    mag += std::abs(dx[i]);
  }
  EXPECT_GT(mag, 0.0);
}

TEST(Model, ForwardFromReplaysTheTailAndHooksOnlyIt) {
  dl::Rng rng(71);
  Model m;
  m.add(std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Linear>(3, 2, rng));
  const Tensor x = randn({2, 2, 5, 5}, rng);
  std::vector<std::size_t> hooked;
  m.set_forward_hook([&](std::size_t i, Layer&) { hooked.push_back(i); });
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() && same_bits(a.data(), b.data(), a.numel());
  };

  std::vector<Tensor> inputs;
  const Tensor y = m.forward_from(0, x, /*train=*/false, &inputs);
  EXPECT_EQ(hooked, (std::vector<std::size_t>{0, 1, 2, 3}));
  ASSERT_EQ(inputs.size(), 5u);  // four layer inputs, then the output
  EXPECT_TRUE(same(inputs[0], x));
  EXPECT_TRUE(same(inputs[4], y));
  EXPECT_TRUE(same(m.forward(x), y));

  hooked.clear();
  EXPECT_TRUE(same(m.forward_from(2, inputs[2]), y));
  EXPECT_EQ(hooked, (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(same(m.forward_from(4, inputs[4]), y));
  EXPECT_THROW((void)m.forward_from(5, y), dl::Error);
}

TEST(SoftmaxCrossEntropy, UniformLogits) {
  Tensor logits({2, 4});
  const LossResult r = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5);
  // Gradient sums to zero per sample.
  for (std::size_t n = 0; n < 2; ++n) {
    float s = 0;
    for (std::size_t c = 0; c < 4; ++c) s += r.grad.at2(n, c);
    EXPECT_NEAR(s, 0.0f, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, HandlesLogitsBelowOldSentinel) {
  // Regression: the max used to start at -1e30, so a row whose logits all
  // sit below it kept that sentinel: loss -inf, argmax 0 and NaN gradients.
  Tensor logits({1, 2});
  logits.at2(0, 0) = -3e30f;
  logits.at2(0, 1) = -2e30f;
  const LossResult r = softmax_cross_entropy(logits, {1});
  EXPECT_EQ(r.correct, 1u);
  EXPECT_FLOAT_EQ(r.loss, 0.0f);
  EXPECT_FLOAT_EQ(r.grad.at2(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(r.grad.at2(0, 1), 0.0f);
}

TEST(SoftmaxCrossEntropy, CorrectCounting) {
  Tensor logits({2, 3});
  logits.at2(0, 1) = 5.0f;  // sample 0 predicts class 1
  logits.at2(1, 2) = 5.0f;  // sample 1 predicts class 2
  const LossResult r = softmax_cross_entropy(logits, {1, 0});
  EXPECT_EQ(r.correct, 1u);
}

}  // namespace
