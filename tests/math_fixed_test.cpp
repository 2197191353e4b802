#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "math/fixed.hpp"
#include "math/rng.hpp"

namespace {

using g5::math::FixedAccumulator;
using g5::math::FixedPointCodec;

TEST(FixedPointCodec, QuantumMatchesSpan) {
  const FixedPointCodec codec(-1.0, 1.0, 16);
  EXPECT_DOUBLE_EQ(codec.quantum(), 2.0 / 65536.0);
  EXPECT_EQ(codec.bits(), 16);
}

TEST(FixedPointCodec, RoundTripWithinHalfQuantum) {
  const FixedPointCodec codec(-10.0, 10.0, 24);
  g5::math::Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    const double q = codec.quantize(x);
    EXPECT_LE(std::fabs(q - x), 0.5 * codec.quantum() * (1.0 + 1e-12));
  }
}

TEST(FixedPointCodec, EncodeIsMonotone) {
  const FixedPointCodec codec(-4.0, 4.0, 12);
  double prev = codec.quantize(-4.0);
  for (double x = -4.0; x <= 4.0; x += 0.001) {
    const double q = codec.quantize(x);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(FixedPointCodec, SaturatesOutsideRange) {
  const FixedPointCodec codec(-1.0, 1.0, 8);
  EXPECT_DOUBLE_EQ(codec.quantize(50.0), codec.hi());
  EXPECT_DOUBLE_EQ(codec.quantize(-50.0), codec.lo());
  EXPECT_LE(codec.hi(), 1.0);
  EXPECT_GE(codec.lo(), -1.0 - codec.quantum());
}

TEST(FixedPointCodec, ExactDifferencesOfCodes) {
  // The pipeline relies on x_j - x_i being exact in code space.
  const FixedPointCodec codec(-2.0, 2.0, 20);
  const auto a = codec.encode(0.125);
  const auto b = codec.encode(-0.375);
  const double diff = codec.delta_to_double(a - b);
  EXPECT_NEAR(diff, 0.5, codec.quantum());
}

TEST(FixedPointCodec, RejectsBadArguments) {
  EXPECT_THROW(FixedPointCodec(1.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(FixedPointCodec(2.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(FixedPointCodec(0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(FixedPointCodec(0.0, 1.0, 63), std::invalid_argument);
}

class FixedCodecBits : public ::testing::TestWithParam<int> {};

TEST_P(FixedCodecBits, ErrorScalesWithBits) {
  const int bits = GetParam();
  const FixedPointCodec codec(-1.0, 1.0, bits);
  const double expected_quantum = 2.0 / std::ldexp(1.0, bits);
  EXPECT_DOUBLE_EQ(codec.quantum(), expected_quantum);
  g5::math::Rng rng(71);
  double worst = 0.0;
  // Stay a quantum clear of the rails: the +max code is 2^(b-1)-1 (two's
  // complement), so values within half a quantum of +1 saturate.
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(codec.lo() + expected_quantum,
                                 codec.hi() - expected_quantum);
    worst = std::max(worst, std::fabs(codec.quantize(x) - x));
  }
  EXPECT_LE(worst, 0.5 * expected_quantum * (1.0 + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(Widths, FixedCodecBits,
                         ::testing::Values(8, 12, 16, 20, 24, 32, 40));

TEST(FixedAccumulator, ExactMultiplesAccumulate) {
  FixedAccumulator acc(0.25);
  acc.add(1.0);
  acc.add(0.5);
  acc.add(-0.25);
  EXPECT_DOUBLE_EQ(acc.value(), 1.25);
  EXPECT_FALSE(acc.saturated());
}

TEST(FixedAccumulator, RoundsToQuantum) {
  FixedAccumulator acc(1.0);
  acc.add(0.4);  // rounds to 0
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
  acc.add(0.6);  // rounds to 1
  EXPECT_DOUBLE_EQ(acc.value(), 1.0);
}

TEST(FixedAccumulator, SaturatesAndFlags) {
  FixedAccumulator acc(1.0);
  acc.add(8.0e18);
  acc.add(8.0e18);
  EXPECT_TRUE(acc.saturated());
  EXPECT_GT(acc.value(), 8.0e18);
  acc.reset();
  EXPECT_FALSE(acc.saturated());
  EXPECT_DOUBLE_EQ(acc.value(), 0.0);
}

TEST(FixedAccumulator, NegativeSaturation) {
  FixedAccumulator acc(1.0);
  acc.add(-8.0e18);
  acc.add(-8.0e18);
  EXPECT_TRUE(acc.saturated());
  EXPECT_LT(acc.value(), -8.0e18);
}

TEST(FixedAccumulator, RejectsBadQuantum) {
  EXPECT_THROW(FixedAccumulator(0.0), std::invalid_argument);
  EXPECT_THROW(FixedAccumulator(-1.0), std::invalid_argument);
}

TEST(FixedAccumulator, ManySmallAddsStayExact) {
  // 10^6 adds of one quantum each: integer arithmetic, no drift.
  FixedAccumulator acc(1e-9);
  for (int i = 0; i < 1000000; ++i) acc.add(1e-9);
  EXPECT_DOUBLE_EQ(acc.value(), 1e-9 * 1000000);
}

TEST(FixedAccumulator, SumsPast2To53AreOrderIndependent) {
  // Counts past 2^53, where a double round trip would drop the unit
  // counts: every order of the same adds gives the exact integer sum.
  const double big = std::ldexp(1.0, 53);
  std::vector<double> terms = {big, big, -3.0};
  for (int k = 0; k < 64; ++k) terms.push_back(k % 3 == 0 ? 1.0 : 5.0);
  std::int64_t expected = 0;
  for (const double t : terms) expected += static_cast<std::int64_t>(t);
  g5::math::Rng rng(12);
  for (int order = 0; order < 20; ++order) {
    for (std::size_t i = terms.size() - 1; i > 0; --i) {
      std::swap(terms[i], terms[rng.uniform_index(i + 1)]);
    }
    FixedAccumulator acc(1.0);
    for (const double t : terms) acc.add(t);
    EXPECT_EQ(acc.raw(), expected) << "order " << order;
    EXPECT_FALSE(acc.saturated());
  }
  // Partial sums merged as counts land on the same integer.
  FixedAccumulator a(1.0);
  FixedAccumulator b(1.0);
  for (std::size_t i = 0; i < terms.size(); ++i) (i % 2 ? a : b).add(terms[i]);
  a.add_counts(b.raw());
  EXPECT_EQ(a.raw(), expected);
}

TEST(FixedAccumulator, RailSaturationSetsTheFlag) {
  constexpr std::int64_t kRail = g5::math::kAccumulatorRail;
  FixedAccumulator acc(1.0);
  acc.add_counts(kRail);  // on the rail: still representable
  EXPECT_EQ(acc.raw(), kRail);
  EXPECT_FALSE(acc.saturated());
  acc.add_counts(1);
  EXPECT_EQ(acc.raw(), kRail);
  EXPECT_TRUE(acc.saturated());
  acc.add_counts(-kRail);  // the flag latches; the register moves on
  EXPECT_EQ(acc.raw(), 0);
  EXPECT_TRUE(acc.saturated());

  FixedAccumulator neg(1.0);
  neg.add_counts(-kRail);
  neg.add_counts(std::numeric_limits<std::int64_t>::min());  // would wrap
  EXPECT_EQ(neg.raw(), -kRail);
  EXPECT_TRUE(neg.saturated());

  // One contribution no 64-bit register holds, and a NaN, saturate.
  for (const double x : {std::ldexp(1.0, 64), -std::ldexp(1.0, 70),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    FixedAccumulator one(1.0);
    one.add(x);
    EXPECT_TRUE(one.saturated()) << x;
    EXPECT_EQ(one.raw(), x < 0.0 ? -kRail : kRail) << x;
  }
}

TEST(FixedAccumulator, NearestCountMatchesNearbyint) {
  // The bias rounding is std::nearbyint, ties to even included, over
  // the whole range it is used on.
  std::vector<double> xs = {0.0,  -0.0, 0.5,  -0.5, 1.5,  -1.5, 2.5,
                            -2.5, 0.49999999999999994, 1e15 + 0.5,
                            std::ldexp(1.0, 51) - 0.5,
                            -std::ldexp(1.0, 51) + 0.5,
                            std::ldexp(1.0, 51) - 0.25};
  g5::math::Rng rng(3);
  for (int k = 0; k < 2000; ++k) {
    xs.push_back(std::ldexp(rng.uniform(-1.0, 1.0), k % 52));
  }
  for (const double x : xs) {
    EXPECT_EQ(FixedAccumulator::nearest_count(x),
              static_cast<std::int64_t>(std::nearbyint(x)))
        << x;
  }
}

}  // namespace
