// Parity suite: the blocked, register-tiled GEMM kernels must agree with
// the naive reference kernels across odd/edge shapes, with and without
// accumulation — gemm and gemm_at bit for bit — and must propagate NaN/Inf
// from B (the historical kernels skipped zero A elements, silently masking
// non-finite B values).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/tensor.hpp"

namespace {

using namespace dl::nn;

std::vector<float> random_buf(std::size_t n, dl::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void expect_close(const std::vector<float>& got,
                  const std::vector<float>& want, std::size_t k,
                  const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  // reference::gemm_bt sums each element as a dot product before adding
  // it to C, while the blocked kernel adds every product to C in turn, so
  // the two round differently; a k-scaled tolerance is generous.
  const float tol = 1e-5f * static_cast<float>(k + 1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << what << " at " << i;
  }
}

/// gemm and gemm_at add every product to C as c += a * b in ascending k,
/// exactly like their reference loops, so they must agree bit for bit.
void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

class GemmParity : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmParity, MatchesReference) {
  const auto [m, k, n] = GetParam();
  dl::Rng rng(m * 1000003 + k * 1009 + n);
  const auto a = random_buf(m * k, rng);   // also reads as k x m for at
  const auto b = random_buf(k * n, rng);   // also reads as n x k for bt
  const auto bt = random_buf(n * k, rng);
  const auto c0 = random_buf(m * n, rng);  // accumulate seed

  for (const bool accumulate : {false, true}) {
    SCOPED_TRACE(accumulate ? "accumulate" : "overwrite");
    {
      auto got = c0, want = c0;
      gemm(m, k, n, a.data(), b.data(), got.data(), accumulate);
      reference::gemm(m, k, n, a.data(), b.data(), want.data(), accumulate);
      expect_bitwise(got, want, "gemm");
    }
    {
      auto got = c0, want = c0;
      gemm_at(m, k, n, a.data(), b.data(), got.data(), accumulate);
      reference::gemm_at(m, k, n, a.data(), b.data(), want.data(),
                         accumulate);
      expect_bitwise(got, want, "gemm_at");
    }
    {
      auto got = c0, want = c0;
      gemm_bt(m, k, n, a.data(), bt.data(), got.data(), accumulate);
      reference::gemm_bt(m, k, n, a.data(), bt.data(), want.data(),
                         accumulate);
      expect_close(got, want, k, "gemm_bt");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParity,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 8, 17, 64),
                       ::testing::Values<std::size_t>(1, 3, 8, 17, 64),
                       ::testing::Values<std::size_t>(1, 3, 8, 17, 64)));

// Shapes that cross the kernel's cache-block boundaries (k panel 128,
// j panel 512) and leave register-tile remainder rows.
INSTANTIATE_TEST_SUITE_P(
    BlockBoundaries, GemmParity,
    ::testing::Values(std::make_tuple(10, 200, 600),
                      std::make_tuple(5, 129, 513),
                      std::make_tuple(64, 300, 1),
                      std::make_tuple(2, 1, 1024)));

TEST(GemmParity, MatchesReferenceWhenParallel) {
  const std::size_t m = 37, k = 150, n = 530;
  dl::Rng rng(99);
  const auto a = random_buf(m * k, rng);  // also reads as k x m for at
  const auto b = random_buf(k * n, rng);
  const auto c0 = random_buf(m * n, rng);
  for (const bool accumulate : {false, true}) {
    SCOPED_TRACE(accumulate ? "accumulate" : "overwrite");
    auto got = c0, got_at = c0, want = c0, want_at = c0;
    dl::parallel::set_threads(8);
    gemm(m, k, n, a.data(), b.data(), got.data(), accumulate);
    gemm_at(m, k, n, a.data(), b.data(), got_at.data(), accumulate);
    dl::parallel::set_threads(0);
    reference::gemm(m, k, n, a.data(), b.data(), want.data(), accumulate);
    reference::gemm_at(m, k, n, a.data(), b.data(), want_at.data(),
                       accumulate);
    expect_bitwise(got, want, "gemm@8threads");
    expect_bitwise(got_at, want_at, "gemm_at@8threads");
  }
}

TEST(GemmNonFinite, NanInBPropagatesPastZeroWeights) {
  // A zero A element must not short-circuit the product: 0 * NaN is NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> a = {0.0f, 1.0f};   // 1 x 2
  const std::vector<float> b = {nan, 2.0f,     // 2 x 2, NaN in row 0
                                3.0f, 4.0f};
  std::vector<float> c(2, 0.0f);
  gemm(1, 2, 2, a.data(), b.data(), c.data());
  EXPECT_TRUE(std::isnan(c[0]));
  EXPECT_NEAR(c[1], 4.0f, 1e-6f);

  // Same through the transposed-A kernel (a stored 2 x 1).
  std::fill(c.begin(), c.end(), 0.0f);
  gemm_at(1, 2, 2, a.data(), b.data(), c.data());
  EXPECT_TRUE(std::isnan(c[0]));

  // And the B-transposed kernel (b stored 2 x 2, NaN pairs with a zero).
  const std::vector<float> btr = {nan, 3.0f, 2.0f, 4.0f};
  std::fill(c.begin(), c.end(), 0.0f);
  gemm_bt(1, 2, 2, a.data(), btr.data(), c.data());
  EXPECT_TRUE(std::isnan(c[0]));
}

TEST(GemmNonFinite, InfPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> a = {0.0f, 1.0f};
  const std::vector<float> b = {inf, 0.0f, 1.0f, 1.0f};
  std::vector<float> c(2, 0.0f);
  gemm(1, 2, 2, a.data(), b.data(), c.data());
  EXPECT_TRUE(std::isnan(c[0]));  // 0 * inf = NaN per IEEE-754
  EXPECT_NEAR(c[1], 1.0f, 1e-6f);
}

TEST(GemmEdge, ZeroSizedDimensions) {
  std::vector<float> c = {1.0f, 2.0f};
  gemm(1, 0, 2, nullptr, nullptr, c.data(), /*accumulate=*/false);
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 0.0f);
  c = {1.0f, 2.0f};
  gemm(1, 0, 2, nullptr, nullptr, c.data(), /*accumulate=*/true);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
}

}  // namespace
