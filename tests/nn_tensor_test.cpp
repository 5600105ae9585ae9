// Tests for the tensor container and GEMM kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "nn/tensor.hpp"

namespace {

using namespace dl::nn;

TEST(Tensor, ShapeAndNumel) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.numel(), 120u);
  EXPECT_EQ(t.rank(), 4u);
  EXPECT_EQ(t.dim(2), 4u);
  EXPECT_EQ(t.shape_string(), "[2, 3, 4, 5]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({8});
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, Index4RowMajor) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.index4(0, 0, 0, 0), 0u);
  EXPECT_EQ(t.index4(0, 0, 0, 1), 1u);
  EXPECT_EQ(t.index4(0, 0, 1, 0), 5u);
  EXPECT_EQ(t.index4(0, 1, 0, 0), 20u);
  EXPECT_EQ(t.index4(1, 0, 0, 0), 60u);
}

TEST(Tensor, At2) {
  Tensor t({3, 4});
  t.at2(1, 2) = 7.0f;
  EXPECT_EQ(t[6], 7.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t[5] = 3.0f;
  t.reshape({3, 4});
  EXPECT_EQ(t[5], 3.0f);
  EXPECT_THROW(t.reshape({5, 5}), dl::Error);
}

TEST(Tensor, FailedPreconditionNamesSourceTreePath) {
  // The message names the file from its src/ component on, whatever
  // directory the library was built in.
  Tensor t({2, 6});
  try {
    t.reshape({5, 5});
    FAIL() << "reshape to a different element count must throw";
  } catch (const dl::Error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("src/nn/tensor.cpp:", 0), 0u)
        << e.what();
  }
}

TEST(Tensor, KaimingBounds) {
  dl::Rng rng(1);
  Tensor t = Tensor::kaiming({64, 16}, 16, rng);
  const float bound = std::sqrt(6.0f / 16.0f);
  float min = 0, max = 0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    min = std::min(min, t[i]);
    max = std::max(max, t[i]);
  }
  EXPECT_GE(min, -bound);
  EXPECT_LE(max, bound);
  EXPECT_LT(min, -bound * 0.5f);  // actually spans the range
  EXPECT_GT(max, bound * 0.5f);
}

// Naive reference GEMM for verification.
void ref_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmSizes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  dl::Rng rng(42);
  std::vector<float> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c(m * n), ref(m * n);
  gemm(m, k, n, a.data(), b.data(), c.data());
  ref_gemm(m, k, n, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4) << "at " << i;
  }
}

TEST_P(GemmSizes, TransposedVariantsMatch) {
  const auto [m, k, n] = GetParam();
  dl::Rng rng(43);
  std::vector<float> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> ref(m * n);
  ref_gemm(m, k, n, a.data(), b.data(), ref.data());

  // gemm_at: a stored transposed (k x m).
  std::vector<float> at(k * m);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  std::vector<float> c1(m * n);
  gemm_at(m, k, n, at.data(), b.data(), c1.data());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], ref[i], 1e-4);

  // gemm_bt: b stored transposed (n x k).
  std::vector<float> bt(n * k);
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  std::vector<float> c2(m * n);
  gemm_bt(m, k, n, a.data(), bt.data(), c2.data());
  for (std::size_t i = 0; i < c2.size(); ++i) EXPECT_NEAR(c2[i], ref[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSizes,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{3, 5, 7},
                                           std::tuple{16, 9, 16},
                                           std::tuple{8, 32, 4},
                                           std::tuple{17, 13, 29}));

TEST(Gemm, AccumulateAddsOntoExisting) {
  const float a[2] = {1, 2};
  const float b[2] = {3, 4};
  float c[1] = {100};
  gemm(1, 2, 1, a, b, c, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 111.0f);
  gemm(1, 2, 1, a, b, c, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
}

}  // namespace
