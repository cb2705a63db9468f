// Tests for the software binary16 implementation. Precision claims of the
// paper's FP16 CG solver rest on these semantics, so the round-trip test is
// exhaustive over all 65536 bit patterns.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "half/half.hpp"

namespace cumf {
namespace {

TEST(Half, ExhaustiveRoundTripThroughFloat) {
  // Every finite or infinite half must survive half → float → half exactly;
  // NaNs must stay NaNs.
  for (std::uint32_t bits = 0; bits <= 0xFFFF; ++bits) {
    const half h = half::from_bits(static_cast<std::uint16_t>(bits));
    const float widened = static_cast<float>(h);
    const half back(widened);
    if (std::isnan(widened)) {
      EXPECT_TRUE(std::isnan(static_cast<float>(back))) << "bits=" << bits;
    } else {
      EXPECT_EQ(back.bits(), h.bits()) << "bits=" << bits;
    }
  }
}

TEST(Half, WideningMatchesReferenceOnKnownValues) {
  EXPECT_EQ(static_cast<float>(half(1.0f)), 1.0f);
  EXPECT_EQ(static_cast<float>(half(-2.0f)), -2.0f);
  EXPECT_EQ(static_cast<float>(half(0.5f)), 0.5f);
  EXPECT_EQ(static_cast<float>(half(65504.0f)), 65504.0f);  // max half
  EXPECT_EQ(static_cast<float>(half::denorm_min()), 0x1.0p-24f);
  EXPECT_EQ(static_cast<float>(half::min_normal()), 0x1.0p-14f);
  EXPECT_EQ(static_cast<float>(half::epsilon()), 0x1.0p-10f);
}

TEST(Half, RoundsToNearestEven) {
  // 1 + 2^-11 sits exactly between 1 and 1+2^-10: ties-to-even keeps 1.
  EXPECT_EQ(half(1.0f + 0x1.0p-11f).bits(), half(1.0f).bits());
  // 1 + 3·2^-11 is exactly between 1+2^-10 and 1+2^-9 → rounds to even
  // (1 + 2^-9 has an even mantissa pattern? verify against nearest).
  const float x = 1.0f + 3.0f * 0x1.0p-11f;
  const float lo = 1.0f + 0x1.0p-10f;
  const float hi = 1.0f + 0x1.0p-9f;
  const float rounded = static_cast<float>(half(x));
  EXPECT_TRUE(rounded == lo || rounded == hi);
  // Ties-to-even: mantissa of the result must be even.
  EXPECT_EQ(half(x).bits() & 1u, 0u);
  // Anything past the midpoint rounds up.
  EXPECT_EQ(static_cast<float>(half(1.0f + 0x1.8p-10f)),
            1.0f + 0x1.0p-9f);
}

TEST(Half, OverflowGoesToInfinity) {
  // 65520 is just past max + ulp/2.
  EXPECT_TRUE(std::isinf(static_cast<float>(half(65520.0f))));
  EXPECT_TRUE(std::isinf(static_cast<float>(half(1e10f))));
  EXPECT_TRUE(std::isinf(static_cast<float>(half(-1e10f))));
  EXPECT_LT(static_cast<float>(half(-1e10f)), 0.0f);
  // 65504 + 15 rounds back down to max (below the ties boundary 65520).
  EXPECT_EQ(half(65519.0f).bits(), half::max().bits());
}

TEST(Half, UnderflowGoesToZeroPreservingSign) {
  const half pos(1e-10f);
  const half neg(-1e-10f);
  EXPECT_EQ(static_cast<float>(pos), 0.0f);
  EXPECT_EQ(static_cast<float>(neg), 0.0f);
  EXPECT_EQ(pos.bits(), 0x0000);
  EXPECT_EQ(neg.bits(), 0x8000);
}

TEST(Half, SubnormalsAreExact) {
  // 2^-24 · k for small k are exactly representable subnormals.
  for (int k = 1; k <= 16; ++k) {
    const float value = static_cast<float>(k) * 0x1.0p-24f;
    const half h(value);
    EXPECT_EQ(h.bits() & 0x7C00u, 0u);  // zero exponent field
    EXPECT_EQ(static_cast<float>(h), value) << "k=" << k;
  }
}

TEST(Half, NanPropagates) {
  const half nan(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(static_cast<float>(nan)));
}

// Relative error of a half-rounded value must be within epsilon/2 for
// normal-range inputs (the storage-error bound the CG analysis relies on).
class HalfPrecisionSweep : public ::testing::TestWithParam<float> {};

TEST_P(HalfPrecisionSweep, RelativeErrorWithinHalfUlp) {
  const float x = GetParam();
  const float rounded = static_cast<float>(half(x));
  const float rel = std::abs(rounded - x) / std::abs(x);
  EXPECT_LE(rel, 0x1.0p-11f * 1.0001f) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    NormalRange, HalfPrecisionSweep,
    ::testing::Values(1.0f, 1.5f, 3.14159f, 123.456f, 0.001f, 0.3333f,
                      2047.3f, 60000.0f, 6.1e-5f, -7.77f, -0.124f,
                      -4096.5f));

}  // namespace
}  // namespace cumf
