// Tests for dl_common: RNG, bit utilities, units, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace {

using namespace dl;

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  constexpr int kSamples = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(std::sqrt(sum_sq / kSamples - mean * mean), 1.0, 0.03);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(19);
  const auto p = rng.permutation(257);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 257u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 256u);
}

TEST(Rng, SplitStreamsIndependentish) {
  Rng parent(23);
  Rng a = parent.split();
  Rng b = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Bits, FlipBitInvolution) {
  const std::uint8_t v = 0b10110100;
  for (unsigned b = 0; b < 8; ++b) {
    EXPECT_EQ(flip_bit(flip_bit(v, b), b), v);
    EXPECT_NE(flip_bit(v, b), v);
  }
}

TEST(Bits, TestAndSet) {
  std::uint8_t v = 0;
  v = set_bit(v, 3, true);
  EXPECT_TRUE(test_bit(v, 3));
  EXPECT_EQ(v, 8);
  v = set_bit(v, 3, false);
  EXPECT_EQ(v, 0);
}

class BitFieldRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitFieldRoundTrip, ExtractDeposit) {
  const unsigned width = GetParam();
  const std::uint64_t base = 0xDEADBEEFCAFEF00DULL;
  for (unsigned lo = 0; lo + width <= 64; lo += 7) {
    const std::uint64_t field = dl::extract_bits(base, lo, width);
    const std::uint64_t redeposited = dl::deposit_bits(base, lo, width, field);
    EXPECT_EQ(redeposited, base) << "lo=" << lo << " width=" << width;
    const std::uint64_t cleared = dl::deposit_bits(base, lo, width, 0);
    EXPECT_EQ(dl::extract_bits(cleared, lo, width), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitFieldRoundTrip,
                         ::testing::Values(1u, 2u, 5u, 8u, 12u, 22u, 40u, 63u));

TEST(Bits, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(Units, LiteralsAndConversions) {
  EXPECT_EQ(1_ns, 1000_ps);
  EXPECT_EQ(1_us, 1000 * 1000_ps);
  EXPECT_DOUBLE_EQ(to_seconds(1_ms), 1e-3);
  EXPECT_DOUBLE_EQ(to_nanoseconds(1500_ps), 1.5);
  EXPECT_EQ(1_MiB, 1024 * 1_KiB);
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(AsciiChart, RendersSeries) {
  AsciiChart c(40, 8);
  c.add_series("lin", {{0, 0}, {1, 1}, {2, 2}});
  const std::string out = c.to_string();
  EXPECT_NE(out.find("lin"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(Error, SourcePathStartsAtLastSrcComponent) {
  using dl::detail::source_path;
  EXPECT_EQ(source_path("/home/ci/checkout/src/traffic/stream.cpp"),
            "src/traffic/stream.cpp");
  EXPECT_EQ(source_path("/a/src/b/src/nn/tensor.cpp"), "src/nn/tensor.cpp");
  EXPECT_EQ(source_path("src/nn/tensor.cpp"), "src/nn/tensor.cpp");
  EXPECT_EQ(source_path("/work/tests/common_test.cpp"),
            "/work/tests/common_test.cpp");
}

TEST(Error, RequireThrowsWithContext) {
  try {
    DL_REQUIRE(false, "context message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

}  // namespace
